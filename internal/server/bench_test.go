package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wal/crash"
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

// BenchmarkOverloadStorm drives two serverload storms a fixed multiple past
// the capacity each first measures, against both arms: admission on (a fixed
// limit, its queue bound and deadline check, brownout) and admission off (every request
// executes). The server is a multilogd child process on a CPU of its own
// (splitCPUs), serving the 6000-fact program with a 4096-entry cache, and
// the storm's clients run on the other CPUs, so the daemon, not the load
// generator, bounds the storm. Capacity is the off arm's completion rate
// under a closed loop of a few sessions; the storm then opens stormMultiple
// × capacity × the 150 ms deadline closed-loop sessions, each of which,
// served at capacity, waits stormMultiple deadlines for its answer. Every
// query carries the deadline, and an answer that comes later is counted as
// a miss; a shed session waits out the Retry-After it was given, as a
// client that honors it does. Both storms are a 90/10 read/write mix:
//
//   - storm=misses reads in read_miss's shape (missQuery), so every read is
//     matched and asks admission for a ticket;
//   - storm=hits reads the six full scans, which a warm cache answers before
//     admission is asked: it is reported, not gated.
//
// Under overload the off arm rides congestion into deadline misses — work
// executed and thrown away — while the on arm sheds early and keeps
// admitted work inside the deadline. Each arm reports goodput (queries
// answered in time per second), which `make bench-smoke` gates at on/off >=
// 1.2x on storm=misses, its hit ratio, sheds and deadline misses, and the
// multiple, the measured capacity and the sessions. On the gated storm an
// off arm that misses no deadline was not overloaded, and an on arm that
// sheds nothing did not act: either proves nothing, and the benchmark
// fails.
func BenchmarkOverloadStorm(b *testing.B) {
	const stormMultiple, deadline = 4, 150 * time.Millisecond
	shape := workload.ProgramConfig{Levels: 4, Facts: 6000, Rules: 24, Preds: 6, Seed: 7, Poly: 0.3}
	dir := b.TempDir()
	bin, err := crash.BuildDaemon(dir)
	if err != nil {
		b.Fatal(err)
	}
	prog := filepath.Join(dir, "storm.mlg")
	if err := os.WriteFile(prog, []byte(workload.ProgramSource(shape)), 0o644); err != nil {
		b.Fatal(err)
	}
	// The child keeps the GOMAXPROCS of the whole machine on its one CPU.
	// With GOMAXPROCS=1 a saturated daemon left new requests waiting before
	// they reached admission: the on arm shed nothing and, like the off arm,
	// answered almost every query late (EXPERIMENTS.md P27).
	procs := "GOMAXPROCS=" + strconv.Itoa(runtime.GOMAXPROCS(0))
	daemonCPUs := splitCPUs(b)
	// serve starts a warm daemon with the given admission limit — its
	// reduction compiled and the cache populated, so that a storm measures
	// steady-state overload, not Prepare — and returns a client for it.
	serve := func(b *testing.B, maxInflight, sessions int) (c *server.Client, stop func()) {
		addrFile := filepath.Join(b.TempDir(), "addr")
		cmd := exec.Command(bin, "-db", "bench="+prog, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-cache", "4096", "-max-inflight", strconv.Itoa(maxInflight), "-max-stale", "30s",
			"-max-sessions", strconv.Itoa(sessions+16), "-quiet")
		cmd.Env = append(os.Environ(), procs)
		if err := startOn(cmd, daemonCPUs); err != nil {
			b.Fatal(err)
		}
		stop = func() { cmd.Process.Kill(); cmd.Wait() } //nolint:errcheck // a killed child
		b.Cleanup(stop)
		var addr []byte
		for start := time.Now(); len(addr) == 0; addr, _ = os.ReadFile(addrFile) {
			if time.Since(start) > time.Minute {
				b.Fatal("multilogd wrote no address in a minute")
			}
			time.Sleep(10 * time.Millisecond)
		}
		c = server.NewClient(string(addr), &http.Client{
			Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: sessions + 16}})
		if rep := serverload.Run(context.Background(), c, serverload.Config{
			Sessions: 8, Queries: 24, Program: shape, Seed: 1, DB: "bench",
		}); rep.Errors > 0 {
			b.Fatalf("warming the daemon: %s", rep.FirstErr)
		}
		return c, stop
	}
	for _, storm := range []struct {
		name string
		read func(*rand.Rand) string
	}{
		{"misses", func(r *rand.Rand) string { return missQuery(r, shape) }},
		{"hits", nil},
	} {
		b.Run("storm="+storm.name, func(b *testing.B) {
			c, stop := serve(b, 0, 16)
			probe := serverload.Run(context.Background(), c, serverload.Config{
				Sessions: 16, Queries: 100, WriteEvery: 9, Read: storm.read,
				Program: shape, Seed: 3, DB: "bench", Sustain: true,
			})
			stop()
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
					c, _ := serve(b, arm.maxInflight, sessions)
					perSession := (b.N + sessions - 1) / sessions
					b.ResetTimer()
					rep := serverload.Run(context.Background(), c, serverload.Config{
						Sessions: sessions, Queries: perSession, WriteEvery: 9, Read: storm.read,
						Deadline: deadline, Backoff: true, Program: shape, Seed: 2, DB: "bench", Sustain: true,
					})
					b.StopTimer()
					b.ReportMetric(rep.QPS(), "goodput")
					b.ReportMetric(float64(rep.CacheHits)/float64(max(1, rep.Queries)), "hit-ratio")
					b.ReportMetric(float64(rep.Shed), "shed")
					b.ReportMetric(float64(rep.Errors), "deadline-misses")
					b.ReportMetric(float64(rep.ReadP99.Nanoseconds()), "p99-read-ns")
					b.ReportMetric(stormMultiple, "multiple")
					b.ReportMetric(capacity, "capacity-qps")
					b.ReportMetric(float64(sessions), "sessions")
					if storm.read == nil || b.N == 1 {
						return
					}
					if arm.maxInflight == 0 && rep.Errors == 0 {
						b.Fatalf("the off arm missed no deadline in %d queries: %d sessions, %dx the measured capacity of %.0f queries/s, do not overload the server",
							rep.Queries, sessions, stormMultiple, capacity)
					}
					if arm.maxInflight > 0 && rep.Shed == 0 {
						b.Fatalf("the on arm shed nothing in %d queries: %d sessions, %dx the measured capacity of %.0f queries/s, never filled the admission limit",
							rep.Queries, sessions, stormMultiple, capacity)
					}
				})
			}
		})
	}
}

// missQuery draws one read of the miss storm over the vocabulary
// workload.ProgramSource writes, in the benchmark's read_miss mix: 60%
// value-bound scans and 20% joins of a derived predicate with a value-bound
// base one. The other 20% are full scans in place of read_miss's point
// reads, so that a read's match, not the round trip around it, is what the
// storm overloads. The result cache keys a query by its text, variables
// included, and every variable carries a suffix drawn from 1000, so the
// space is far larger than a 4096-entry cache: each read is matched, not
// answered from it.
func missQuery(r *rand.Rand, p workload.ProgramConfig) string {
	n, pred, val := r.Intn(1000), r.Intn(p.Preds), r.Intn(5)
	switch u := r.Float64(); {
	case u < 0.6:
		return fmt.Sprintf("L[p%d(K%d: a -C%d-> v%d)]", pred, n, n, val)
	case u < 0.8:
		return fmt.Sprintf("M[q%d(K%d: d -D%d-> W%d)], L[p%d(K%d: a -C%d-> v%d)]", r.Intn(p.Rules), n, n, n, pred, n, n, val)
	}
	return fmt.Sprintf("L[p%d(K%d: a -C%d-> V%d)]", pred, n, n, n)
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
