package server_test

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
	"repro/internal/workload/serverload"
)

// benchProgram is sized so the match phase dominates HTTP transport: the
// cold/cached ratio then measures the result cache, not socket overhead.
func benchProgram() string {
	return workload.ProgramSource(workload.ProgramConfig{
		Levels: 5, Facts: 800, Rules: 40, Preds: 6, Seed: 7, Poly: 0.3,
	})
}

const benchQuery = "L[p0(K: a -C-> V)]"

// benchServer starts a server with the given cache capacity and returns a
// client plus n open session tokens at the top clearance.
func benchServer(b *testing.B, cacheEntries, n int) (*server.Client, []string) {
	b.Helper()
	srv := server.New(server.Config{CacheEntries: cacheEntries, QueryTimeout: time.Minute})
	if err := srv.Load("bench", benchProgram()); err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	b.Cleanup(hs.Close)
	hc := &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 128}}
	c := server.NewClient(hs.URL, hc)
	tokens := make([]string, n)
	for i := range tokens {
		resp, err := c.Open(context.Background(), server.OpenRequest{
			Subject: fmt.Sprintf("bench%d", i), Clearance: "l4", Mode: "opt"})
		if err != nil {
			b.Fatal(err)
		}
		tokens[i] = resp.Session
	}
	// One throwaway query compiles the reduction so neither variant pays
	// Prepare inside the timed loop.
	if _, err := c.QueryContext(context.Background(), server.QueryRequest{
		Session: tokens[0], Query: benchQuery}); err != nil {
		b.Fatal(err)
	}
	return c, tokens
}

// BenchmarkServerQueryCold measures the full match path: the cache is
// disabled, so every request re-runs the prepared-reduction match.
func BenchmarkServerQueryCold(b *testing.B) {
	c, tokens := benchServer(b, -1, 1)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.QueryContext(ctx, server.QueryRequest{Session: tokens[0], Query: benchQuery})
		if err != nil {
			b.Fatal(err)
		}
		if resp.Cached {
			b.Fatal("cold benchmark served from cache")
		}
	}
}

// BenchmarkServerQueryCached measures a repeat query on a warm cache. The
// acceptance bar is >=10x faster than BenchmarkServerQueryCold.
func BenchmarkServerQueryCached(b *testing.B) {
	c, tokens := benchServer(b, 1024, 1)
	ctx := context.Background()
	req := server.QueryRequest{Session: tokens[0], Query: benchQuery}
	if _, err := c.QueryContext(ctx, req); err != nil { // warm
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.QueryContext(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("cached benchmark missed the cache")
		}
	}
}

// BenchmarkOverloadStorm drives a serverload storm a fixed multiple past
// the capacity it first measures, against both arms: admission on (adaptive
// limit, CoDel shedding, brownout) and admission off (every request
// executes). Capacity is the off arm's completion rate, in this process, on
// the 6000-fact program under a closed loop of a few sessions; the storm
// then opens stormMultiple × capacity × the 150 ms deadline closed-loop
// sessions, each of which, served at capacity, waits stormMultiple deadlines
// for its answer. The workload is a 90/10 read/write mix, so the off arm
// rides congestion into deadline misses — work executed and thrown away —
// while the on arm sheds early and keeps admitted work inside the deadline.
// Each arm reports goodput (completed queries per second), which `make
// bench-smoke` gates at on/off >= 1.2x, its sheds and deadline misses, and
// the multiple, the measured capacity and the sessions. A storm under which
// the off arm misses no deadline does not overload the server and proves
// nothing either way: the benchmark fails.
func BenchmarkOverloadStorm(b *testing.B) {
	const stormMultiple, deadline = 4, 150 * time.Millisecond
	shape := workload.ProgramConfig{Levels: 4, Facts: 6000, Rules: 24, Preds: 6, Seed: 7, Poly: 0.3}
	// serve starts a warm server with the given admission limit — every
	// reduction compiled and the cache populated, so that a storm measures
	// steady-state overload, not Prepare — and returns a client that waits
	// for answers, and one that gives a request up at the deadline: a late
	// answer is work executed and thrown away.
	serve := func(b *testing.B, maxInflight, sessions int) (patient, storm *server.Client) {
		srv := server.New(server.Config{
			CacheEntries: 4096, QueryTimeout: deadline,
			MaxSessions: sessions + 16, MaxInflight: maxInflight, MaxStale: 30 * time.Second,
		})
		if err := srv.Load("bench", workload.ProgramSource(shape)); err != nil {
			b.Fatal(err)
		}
		hs := httptest.NewUnstartedServer(srv.Handler())
		// A request the client gave up on can log a second WriteHeader;
		// that log would split the benchmark's result line.
		hs.Config.ErrorLog = log.New(io.Discard, "", 0)
		hs.Start()
		b.Cleanup(hs.Close)
		tr := &http.Transport{MaxIdleConnsPerHost: sessions + 16}
		patient = server.NewClient(hs.URL, &http.Client{Timeout: time.Minute, Transport: tr})
		serverload.Run(context.Background(), patient, serverload.Config{
			Sessions: 4, Queries: 24, Program: shape, Seed: 1, DB: "bench", Sustain: true,
		})
		return patient, server.NewClient(hs.URL, &http.Client{Timeout: deadline, Transport: tr})
	}
	patient, _ := serve(b, 0, 4)
	probe := serverload.Run(context.Background(), patient, serverload.Config{
		Sessions: 4, Queries: 100, WriteEvery: 9, Program: shape, Seed: 3, DB: "bench", Sustain: true,
	})
	capacity := probe.QPS()
	sessions := max(1, int(stormMultiple*capacity*deadline.Seconds()))
	for _, arm := range []struct {
		name        string
		maxInflight int
	}{
		{"admission=on", 16},
		{"admission=off", 0},
	} {
		b.Run(arm.name, func(b *testing.B) {
			_, c := serve(b, arm.maxInflight, sessions)
			perSession := (b.N + sessions - 1) / sessions
			b.ResetTimer()
			rep := serverload.Run(context.Background(), c, serverload.Config{
				Sessions: sessions, Queries: perSession, WriteEvery: 9,
				Program: shape, Seed: 2, DB: "bench", Sustain: true,
			})
			b.StopTimer()
			b.ReportMetric(rep.QPS(), "goodput")
			b.ReportMetric(float64(rep.Shed), "shed")
			b.ReportMetric(float64(rep.Errors), "deadline-misses")
			b.ReportMetric(float64(rep.ReadP99.Nanoseconds()), "p99-read-ns")
			b.ReportMetric(stormMultiple, "multiple")
			b.ReportMetric(capacity, "capacity-qps")
			b.ReportMetric(float64(sessions), "sessions")
			if arm.maxInflight == 0 && rep.Errors == 0 && b.N > 1 {
				b.Fatalf("the off arm missed no deadline in %d queries: %d sessions, %dx the measured capacity of %.0f queries/s, do not overload the server",
					rep.Queries, sessions, stormMultiple, capacity)
			}
		})
	}
}

// BenchmarkServerSessions compares 1 reader against 64 concurrent readers
// sharing one warm cache, measuring per-query latency under contention.
func BenchmarkServerSessions(b *testing.B) {
	for _, n := range []int{1, 64} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			c, tokens := benchServer(b, 1024, n)
			ctx := context.Background()
			if _, err := c.QueryContext(ctx, server.QueryRequest{
				Session: tokens[0], Query: benchQuery}); err != nil { // warm
				b.Fatal(err)
			}
			var next atomic.Int64
			b.SetParallelism(n)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				sess := tokens[int(next.Add(1)-1)%len(tokens)]
				for pb.Next() {
					if _, err := c.QueryContext(ctx, server.QueryRequest{
						Session: sess, Query: benchQuery}); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
