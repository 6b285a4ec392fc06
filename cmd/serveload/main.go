// Command serveload is the multilogd workload client: it opens many
// concurrent sessions against a running daemon, fires seeded queries
// (optionally interleaved with assert/retract churn), and prints a
// client-side report next to the server's /v1/stats counters. The smoke
// harness (`make serve-smoke`) drives the whole loop: generate a program,
// start multilogd, storm it, check the stats.
//
// Usage:
//
//	serveload -emit prog.mlg -levels 4 -facts 300 -preds 4   # write a program
//	serveload -addr 127.0.0.1:7070 -sessions 16 -queries 50 -updates 10
//
// One-shot mode sends a single tracked request instead of a storm — the
// smoke harness uses it to write a fact, crash the daemon, and prove the
// fact survived recovery, and to hold a follower's answers, which -query
// prints, to its primary's:
//
//	serveload -addr ... -clearance l0 -assert 'l0[p0(k: a -l0-> v)].'
//	serveload -addr ... -ready -wait 10s -clearance l0 \
//	    -query 'l0[p0(k: a -l0-> V)]' -expect 1
//
// The -levels/-preds flags must match the served program's shape (the same
// flags that generated it).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
	"repro/internal/workload/serverload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "multilogd address (comma-separated list = fleet mode: sessions spread across endpoints with failover)")
	db := flag.String("db", "", "database name (empty = the server's sole database)")
	sessions := flag.Int("sessions", 16, "concurrent sessions")
	queries := flag.Int("queries", 50, "queries per session")
	updates := flag.Int("updates", 0, "assert/retract pairs by a concurrent updater")
	writeEvery := flag.Int("write-every", 0, "mix one in-session write after every N reads (9 = a 90/10 storm; 0 = read-only sessions)")
	seed := flag.Int64("seed", 1, "storm seed")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall storm deadline")
	wait := flag.Duration("wait", 0, "poll the daemon's health for up to this long before storming")
	ready := flag.Bool("ready", false, "with -wait: require /v1/readyz (recovery finished), not just liveness")
	clearance := flag.String("clearance", "l0", "session clearance for one-shot -assert/-query")
	assertOne := flag.String("assert", "", "one-shot: assert these clauses through a single session and exit")
	queryOne := flag.String("query", "", "one-shot: run this query through a single session and exit")
	expect := flag.Int("expect", -1, "with -query: fail unless exactly this many answers (negative = don't check)")
	emit := flag.String("emit", "", "write a generated program to this path and exit")
	levels := flag.Int("levels", 4, "program shape: chain lattice length")
	facts := flag.Int("facts", 300, "program shape: m-facts (with -emit)")
	rules := flag.Int("rules", 16, "program shape: m-rules (with -emit)")
	preds := flag.Int("preds", 4, "program shape: distinct predicates")
	poly := flag.Float64("poly", 0.3, "program shape: polyinstantiation probability (with -emit)")
	flag.Parse()

	cfg := workload.ProgramConfig{
		Levels: *levels, Facts: *facts, Rules: *rules, Preds: *preds, Seed: *seed, Poly: *poly,
	}
	if *emit != "" {
		if err := os.WriteFile(*emit, []byte(workload.ProgramSource(cfg)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "serveload:", err)
			os.Exit(1)
		}
		fmt.Printf("serveload: wrote %s (levels=%d facts=%d rules=%d preds=%d)\n",
			*emit, cfg.Levels, cfg.Facts, cfg.Rules, cfg.Preds)
		return
	}

	one := oneShot{clearance: *clearance, assert: *assertOne, query: *queryOne, expect: *expect}
	if err := run(*addr, *db, *sessions, *queries, *updates, *writeEvery, *timeout, *wait, *ready, one, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "serveload:", err)
		os.Exit(1)
	}
}

// oneShot is a single tracked request in place of a storm.
type oneShot struct {
	clearance string
	assert    string
	query     string
	expect    int
}

func run(addr, db string, sessions, queries, updates, writeEvery int, timeout, wait time.Duration, ready bool, one oneShot, cfg workload.ProgramConfig) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var endpoints []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			endpoints = append(endpoints, a)
		}
	}
	if len(endpoints) == 0 {
		return fmt.Errorf("-addr is empty")
	}
	c := server.NewClient(endpoints[0], nil).WithEndpoints(endpoints...)
	deadline := time.Now().Add(wait)
	for {
		err := c.Healthy(ctx)
		if err == nil && ready {
			// Liveness is not readiness: while recovery replays the log,
			// healthz answers but readyz is 503 and writes are refused.
			_, err = c.Ready(ctx)
		}
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s is not ready: %w", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	if one.assert != "" || one.query != "" {
		return runOneShot(ctx, c, db, one)
	}

	rep := serverload.Run(ctx, c, serverload.Config{
		Sessions: sessions, Queries: queries, Updates: updates, WriteEvery: writeEvery,
		Program: cfg, Seed: cfg.Seed, DB: db, Endpoints: endpoints,
	})
	fmt.Printf("storm: %d queries (%d answers) in %s — %.0f q/s, %d cache hits, %d updates, %d mix writes\n",
		rep.Queries, rep.Answers, rep.Elapsed.Round(time.Millisecond), rep.QPS(), rep.CacheHits, rep.Updates, rep.Writes)
	if rep.Errors > 0 {
		return fmt.Errorf("%d request(s) failed; first: %s", rep.Errors, rep.FirstErr)
	}
	if rep.RYWViolations > 0 {
		return fmt.Errorf("%d read(s) missed the session's own acked write (read-your-writes broken)", rep.RYWViolations)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		return fmt.Errorf("fetching /v1/stats: %w", err)
	}
	fmt.Printf("server: served=%d errors=%d truncated=%d cache=%d/%d (hit/miss, %d entries) sessions peak=%d\n",
		st.Queries.Served, st.Queries.Errors, st.Queries.Truncated,
		st.Cache.Hits, st.Cache.Misses, st.Cache.Entries, st.Sessions.Peak)
	if st.Replication != nil {
		fmt.Printf("replication: role=%s applied=%d acked=%d ryw holds/forwards=%d/%d fallbacks=%d failovers=%d\n",
			st.Replication.Role, st.Replication.AppliedSeq, st.Replication.WritesAcked,
			st.Replication.RYWHolds, st.Replication.RYWForwards, st.Replication.ReadFallback, st.Replication.Failovers)
	}

	if len(endpoints) > 1 {
		// The storm was spread across a fleet; one node's counters cannot be
		// compared against the aggregate the clients saw.
		fmt.Println("serveload: ok (fleet mode: per-node stats cross-check skipped)")
		return nil
	}
	// Cross-check the daemon's counters against what the clients saw.
	want := rep.Queries
	if st.Queries.Served < want {
		return fmt.Errorf("stats mismatch: server served %d queries, clients completed %d", st.Queries.Served, want)
	}
	if st.Cache.Hits < rep.CacheHits {
		return fmt.Errorf("stats mismatch: server counted %d cache hits, clients observed %d", st.Cache.Hits, rep.CacheHits)
	}
	if updates > 0 && st.Cache.Invalidations+st.Cache.Patched == 0 && rep.CacheHits > 0 {
		return fmt.Errorf("stats mismatch: updates ran but the cache was never invalidated or patched")
	}
	fmt.Println("serveload: ok")
	return nil
}

// runOneShot opens one session and performs the single -assert and/or
// -query, in that order.
func runOneShot(ctx context.Context, c *server.Client, db string, one oneShot) error {
	sess, err := c.Open(ctx, server.OpenRequest{Subject: "serveload", Clearance: one.clearance, DB: db})
	if err != nil {
		return fmt.Errorf("opening session at %s: %w", one.clearance, err)
	}
	defer c.Close(ctx, sess.Session) //nolint:errcheck // best-effort
	if one.assert != "" {
		resp, err := c.Assert(ctx, sess.Session, one.assert)
		if err != nil {
			return fmt.Errorf("assert: %w", err)
		}
		fmt.Printf("serveload: asserted %d clause(s); epoch %d\n", resp.Changed, resp.Epoch)
	}
	if one.query != "" {
		resp, err := c.QueryContext(ctx, server.QueryRequest{Session: sess.Session, Query: one.query})
		if err != nil {
			return fmt.Errorf("query: %w", err)
		}
		answers, err := json.Marshal(resp.Answers)
		if err != nil {
			return fmt.Errorf("query: encoding answers: %w", err)
		}
		fmt.Printf("serveload: %d answer(s) for %s: %s\n", len(resp.Answers), one.query, answers)
		if one.expect >= 0 && len(resp.Answers) != one.expect {
			return fmt.Errorf("query %q: got %d answer(s), want %d", one.query, len(resp.Answers), one.expect)
		}
	}
	return nil
}
