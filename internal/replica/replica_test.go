package replica_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/internal/workload/serverload"
)

const testProgram = `
	level(u).  level(c).  level(s).
	order(u, c).  order(c, s).
	u[emp(alice: salary -u-> low)].
	c[emp(alice: salary -c-> mid)].
	s[emp(alice: salary -s-> high)].
	u[emp(bob: salary -u-> low)].
`

// node is one in-process fleet member. A primary serves its handler over
// httptest (so a test can kill it outright); a follower runs through
// server.Serve on its data directory, as multilogd runs it, and stop drains
// it.
type node struct {
	srv   *server.Server
	store *wal.Store
	dir   string
	url   string
	cl    *server.Client
	hs    *httptest.Server // primaries only
	stop  func()           // followers only
}

func startPrimary(t testing.TB, program string, faults faultinject.FilePlan) *node {
	t.Helper()
	store, rec, err := wal.Open(wal.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := server.New(server.Config{WAL: store, StreamFaults: faults})
	boot := map[string]string{}
	if program != "" {
		boot["test"] = program
	}
	if err := srv.Recover(rec, boot); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	// A live replication stream keeps a connection active; Close alone would
	// wait on it forever if cleanup ordering leaves a streamer running.
	t.Cleanup(func() { hs.CloseClientConnections(); hs.Close() })
	return &node{srv: srv, store: store, url: hs.URL, cl: server.NewClient(hs.URL, hs.Client()), hs: hs}
}

func startFollower(t testing.TB, primaryURL string) *node {
	t.Helper()
	return startFollowerConfig(t, server.Config{}, primaryURL)
}

func startFollowerConfig(t testing.TB, cfg server.Config, primaryURL string) *node {
	t.Helper()
	return serveFollower(t, cfg, t.TempDir(), primaryURL)
}

// serveFollower boots a follower of primaryURL on the data directory dir —
// New, Recover, then Serve on a loopback listener — and drains it at
// cleanup, or earlier through the node's stop.
func serveFollower(t testing.TB, cfg server.Config, dir, primaryURL string) *node {
	t.Helper()
	store, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg.WAL, cfg.Role, cfg.PrimaryAddr = store, server.RoleFollower, primaryURL
	srv := server.New(cfg)
	if err := srv.Recover(rec, nil); err != nil {
		store.Close()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln, 5*time.Second) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			if err := <-served; err != nil {
				t.Errorf("follower %s drained with %v", ln.Addr(), err)
			}
		})
	}
	t.Cleanup(stop)
	url := "http://" + ln.Addr().String()
	return &node{srv: srv, store: store, dir: dir, url: url, cl: server.NewClient(url, nil), stop: stop}
}

// repl is the node's replication view, as /v1/stats reports it.
func (n *node) repl() *server.ReplicationStats { return n.srv.Stats().Replication }

// waitApplied blocks until every follower has applied the primary's last
// seq (and reports synced), or fails the test.
func waitApplied(t testing.TB, primary *node, followers ...*node) {
	t.Helper()
	want := primary.store.LastSeq()
	deadline := time.Now().Add(10 * time.Second)
	for _, f := range followers {
		for st := f.repl(); st.AppliedSeq < want || !st.Synced; st = f.repl() {
			if time.Now().After(deadline) {
				t.Fatalf("follower %s stuck at seq %d (synced=%v), primary at %d; stream error: %s",
					f.url, st.AppliedSeq, st.Synced, want, st.LastStreamError)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// answersEverywhere queries every clearance x belief mode on the node and
// returns the full answer map — the byte-equal fleet comparison.
func answersEverywhere(t *testing.T, cl *server.Client) map[string][]map[string]string {
	t.Helper()
	ctx := context.Background()
	out := map[string][]map[string]string{}
	for _, clearance := range []string{"u", "c", "s"} {
		for _, mode := range []string{"fir", "opt", "cau"} {
			sess, err := cl.Open(ctx, server.OpenRequest{Subject: "cmp", Clearance: clearance, Mode: mode})
			if err != nil {
				t.Fatalf("open %s/%s: %v", clearance, mode, err)
			}
			resp, err := cl.QueryContext(ctx, server.QueryRequest{
				Session: sess.Session, Query: "L[emp(K: salary -C-> V)]"})
			if err != nil {
				t.Fatalf("query %s/%s: %v", clearance, mode, err)
			}
			out[clearance+"/"+mode] = resp.Answers
			cl.Close(ctx, sess.Session) //nolint:errcheck // best-effort
		}
	}
	return out
}

func assertFleetAgrees(t *testing.T, primary *node, followers ...*node) {
	t.Helper()
	want := answersEverywhere(t, primary.cl)
	for _, f := range followers {
		if got := answersEverywhere(t, f.cl); !reflect.DeepEqual(want, got) {
			t.Fatalf("fleet diverged at %s:\n primary  %v\n follower %v", f.url, want, got)
		}
	}
}

func TestClusterConverges(t *testing.T) {
	p := startPrimary(t, testProgram, nil)
	f1 := startFollower(t, p.url)
	f2 := startFollower(t, p.url)

	ctx := context.Background()
	sess, err := p.cl.Open(ctx, server.OpenRequest{Subject: "w", Clearance: "s"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := p.cl.Assert(ctx, sess.Session,
			fmt.Sprintf("s[emp(w%d: salary -s-> top)].", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.cl.Retract(ctx, sess.Session, "u[emp(bob: salary -u-> low)]."); err != nil {
		t.Fatal(err)
	}

	waitApplied(t, p, f1, f2)
	assertFleetAgrees(t, p, f1, f2)

	// Followers refuse writes, pointing at the primary.
	fs, err := f1.cl.Open(ctx, server.OpenRequest{Subject: "w", Clearance: "s"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = f1.cl.Assert(ctx, fs.Session, "s[emp(nope: salary -s-> top)].")
	var re *server.RemoteError
	if !errors.As(err, &re) || re.Code != server.CodeNotPrimary || re.Primary != p.url {
		t.Fatalf("follower write = %v, want 421 pointing at %s", err, p.url)
	}
}

func TestCorruptFrameDropsAndResumes(t *testing.T) {
	// The 4th stream frame arrives with a flipped bit: the follower's CRC
	// check must drop the connection, resume from its last durable seq, and
	// still converge with nothing skipped or doubled.
	p := startPrimary(t, testProgram, faultinject.FileActionOnce(faultinject.FileCorrupt, faultinject.ReplStreamFrame, 4))
	f := startFollower(t, p.url)
	// Let the follower finish its snapshot bootstrap first, so the writes
	// below travel as stream frames rather than inside the snapshot.
	waitApplied(t, p, f)

	ctx := context.Background()
	sess, err := p.cl.Open(ctx, server.OpenRequest{Subject: "w", Clearance: "s"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := p.cl.Assert(ctx, sess.Session,
			fmt.Sprintf("s[emp(c%d: salary -s-> top)].", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, p, f)
	assertFleetAgrees(t, p, f)
	if got := f.repl().Resumes; got < 1 {
		t.Fatalf("corrupt frame caused %d resumes, want >= 1", got)
	}
}

func TestShortWriteDropsAndResumes(t *testing.T) {
	p := startPrimary(t, testProgram, faultinject.FileActionOnce(faultinject.FileShortWrite, faultinject.ReplStreamFrame, 3))
	f := startFollower(t, p.url)
	waitApplied(t, p, f)

	ctx := context.Background()
	sess, err := p.cl.Open(ctx, server.OpenRequest{Subject: "w", Clearance: "s"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := p.cl.Assert(ctx, sess.Session,
			fmt.Sprintf("s[emp(t%d: salary -s-> top)].", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, p, f)
	assertFleetAgrees(t, p, f)
	if got := f.repl().Resumes; got < 1 {
		t.Fatalf("short write caused %d resumes, want >= 1", got)
	}
}

func TestCompactionForcesReBootstrap(t *testing.T) {
	p := startPrimary(t, testProgram, nil)
	f := startFollower(t, p.url)
	ctx := context.Background()
	sess, err := p.cl.Open(ctx, server.OpenRequest{Subject: "w", Clearance: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.cl.Assert(ctx, sess.Session, "s[emp(pre: salary -s-> top)]."); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, p, f)

	// Partition the follower (drain it), then move the primary past TWO
	// checkpoints: the store retains two, and segments are pruned only up to
	// the OLDEST retained one, so a single checkpoint would still leave the
	// follower's position streamable.
	f.stop()
	for i := 0; i < 4; i++ {
		if _, err := p.cl.Assert(ctx, sess.Session,
			fmt.Sprintf("s[emp(gap%d: salary -s-> top)].", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.cl.Assert(ctx, sess.Session, "s[emp(mid: salary -s-> top)]."); err != nil {
		t.Fatal(err)
	}
	if err := p.srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.cl.Assert(ctx, sess.Session, "s[emp(post: salary -s-> top)]."); err != nil {
		t.Fatal(err)
	}

	// Restart the follower on its data directory: it resumes from where its
	// log ends, a position the primary has compacted away.
	f = serveFollower(t, server.Config{}, f.dir, p.url)
	waitApplied(t, p, f)
	assertFleetAgrees(t, p, f)
	if got := f.repl().SnapshotBootstraps; got < 1 {
		t.Fatalf("compacted stream did not re-bootstrap the restarted follower (bootstraps %d)", got)
	}
}

// startRouter runs a Router over a real listener (Serve owns the probe
// loop) and returns its base URL.
func startRouter(t *testing.T, cfg replica.RouterConfig) string {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	r, err := replica.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); r.Serve(ctx, ln, time.Second) }() //nolint:errcheck // drained on cleanup
	t.Cleanup(func() { cancel(); <-done })
	return "http://" + ln.Addr().String()
}

func routerStats(t *testing.T, cl *server.Client) *server.ReplicationStats {
	t.Helper()
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Replication == nil {
		t.Fatal("router stats missing replication section")
	}
	return st.Replication
}

// waitHealthyReplicas blocks until the router's probes report n healthy
// non-primary backends.
func waitHealthyReplicas(t *testing.T, cl *server.Client, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		healthy := 0
		for _, b := range routerStats(t, cl).Nodes {
			if b.Role != "primary" && b.Healthy {
				healthy++
			}
		}
		if healthy >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never saw %d healthy replicas", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRouterReadYourWritesUnderStorm is the acceptance storm: a 90/10
// read/write mix through the router, every session's reads must observe its
// own acked writes even though reads are pinned to replicas.
func TestRouterReadYourWritesUnderStorm(t *testing.T) {
	prog := workload.ProgramSource(workload.ProgramConfig{
		Levels: 3, Facts: 60, Rules: 6, Preds: 2, Seed: 1, Poly: 0.3})
	p := startPrimary(t, prog, nil)
	f1 := startFollower(t, p.url)
	f2 := startFollower(t, p.url)
	waitApplied(t, p, f1, f2)

	rurl := startRouter(t, replica.RouterConfig{
		Primary:    p.url,
		Replicas:   []replica.BackendSpec{{Addr: f1.url}, {Addr: f2.url}},
		AckTimeout: 5 * time.Second,
		RYWHold:    5 * time.Second,
	})
	rc := server.NewClient(rurl, nil)
	waitHealthyReplicas(t, rc, 2)

	rep := serverload.Run(context.Background(), rc, serverload.Config{
		Sessions: 8, Queries: 40, WriteEvery: 9,
		Program: workload.ProgramConfig{Levels: 3, Preds: 2}, Seed: 1,
	})
	if rep.Errors > 0 {
		t.Fatalf("%d storm errors; first: %s", rep.Errors, rep.FirstErr)
	}
	if rep.Writes == 0 {
		t.Fatal("storm mixed no writes; the RYW check tested nothing")
	}
	if rep.RYWViolations > 0 {
		t.Fatalf("%d read-your-writes violations through the router", rep.RYWViolations)
	}
	rs := routerStats(t, rc)
	if rs.WritesAcked < rep.Writes {
		t.Fatalf("router acked %d writes, clients completed %d", rs.WritesAcked, rep.Writes)
	}
	if rs.AckTimeouts != 0 {
		t.Fatalf("%d replicas dropped from the ack quorum during a healthy storm", rs.AckTimeouts)
	}
}

// TestRouterFailoverLosesNoAckedWrite kills the primary mid-run and checks
// the router promotes the most-caught-up follower with every acked write
// still answerable.
func TestRouterFailoverLosesNoAckedWrite(t *testing.T) {
	p := startPrimary(t, testProgram, nil)
	f1 := startFollower(t, p.url)
	f2 := startFollower(t, p.url)
	waitApplied(t, p, f1, f2)

	rurl := startRouter(t, replica.RouterConfig{
		Primary:    p.url,
		Replicas:   []replica.BackendSpec{{Addr: f1.url}, {Addr: f2.url}},
		AckTimeout: 5 * time.Second,
		RYWHold:    5 * time.Second,
	})
	rc := server.NewClient(rurl, nil)
	waitHealthyReplicas(t, rc, 2)

	ctx := context.Background()
	sess, err := rc.Open(ctx, server.OpenRequest{Subject: "w", Clearance: "s"})
	if err != nil {
		t.Fatal(err)
	}
	var acked []string
	write := func(name string) {
		t.Helper()
		fact := fmt.Sprintf("s[emp(%s: salary -s-> top)].", name)
		deadline := time.Now().Add(10 * time.Second)
		for {
			_, err := rc.Assert(ctx, sess.Session, fact)
			if err == nil {
				acked = append(acked, name)
				return
			}
			var re *server.RemoteError
			if !errors.As(err, &re) || re.Status != http.StatusServiceUnavailable || time.Now().After(deadline) {
				t.Fatalf("write %s: %v", name, err)
			}
			time.Sleep(50 * time.Millisecond) // failover in progress; retry
		}
	}
	write("before1")
	write("before2")

	// Kill the primary: its listener drops, in-flight connections die.
	p.hs.CloseClientConnections()
	p.hs.Close()

	write("after1")
	write("after2")

	rs := routerStats(t, rc)
	if rs.Failovers < 1 {
		t.Fatalf("router reports %d failovers after primary loss", rs.Failovers)
	}
	// The promoted node must answer every acked write.
	prim := rs.Primary
	var surv *node
	for _, f := range []*node{f1, f2} {
		if f.url == prim {
			surv = f
		}
	}
	if surv == nil {
		t.Fatalf("new primary %q is not one of the followers", prim)
	}
	if role := surv.repl().Role; role != "primary" {
		t.Fatalf("promoted node still in role %s", role)
	}
	qs, err := surv.cl.Open(ctx, server.OpenRequest{Subject: "check", Clearance: "s"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := surv.cl.QueryContext(ctx, server.QueryRequest{
		Session: qs.Session, Query: "s[emp(K: salary -s-> top)]"})
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, a := range resp.Answers {
		have[a["K"]] = true
	}
	for _, name := range acked {
		if !have[name] {
			t.Fatalf("acked write %q lost across failover (have %v)", name, have)
		}
	}
	// The surviving follower converges on the new primary and agrees.
	var other *node
	if surv == f1 {
		other = f2
	} else {
		other = f1
	}
	waitApplied(t, surv, other)
	assertFleetAgrees(t, surv, other)
}

func TestRouterBandPinning(t *testing.T) {
	prog := workload.ProgramSource(workload.ProgramConfig{
		Levels: 3, Facts: 30, Rules: 3, Preds: 2, Seed: 1, Poly: 0.3})
	p := startPrimary(t, prog, nil)
	f1 := startFollower(t, p.url)
	f2 := startFollower(t, p.url)
	waitApplied(t, p, f1, f2)

	rurl := startRouter(t, replica.RouterConfig{
		Primary: p.url,
		Replicas: []replica.BackendSpec{
			{Addr: f1.url, Bands: []string{"l0"}},
			{Addr: f2.url, Bands: []string{"l1", "l2"}},
		},
	})
	rc := server.NewClient(rurl, nil)
	waitHealthyReplicas(t, rc, 2)

	ctx := context.Background()
	for i, clearance := range []string{"l0", "l0", "l1", "l2"} {
		if _, err := rc.Open(ctx, server.OpenRequest{
			Subject: fmt.Sprintf("band%d", i), Clearance: clearance}); err != nil {
			t.Fatal(err)
		}
	}
	var l0Sessions, highSessions int64
	for _, b := range routerStats(t, rc).Nodes {
		switch b.Addr {
		case f1.url:
			l0Sessions = b.Sessions
		case f2.url:
			highSessions = b.Sessions
		}
	}
	if l0Sessions != 2 || highSessions != 2 {
		t.Fatalf("band pinning spread sessions (l0 replica: %d, l1/l2 replica: %d), want 2/2",
			l0Sessions, highSessions)
	}
}

// TestSilentStreamStallReconnects simulates a silent network partition: the
// primary's stream answers with headers and then goes mute — no frames, no
// heartbeats, no FIN. The follower's stall watchdog must cut the connection
// and reconnect instead of blocking in the read forever.
func TestSilentStreamStallReconnects(t *testing.T) {
	var streams atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/repl/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("X-Repl-Seq", "0")
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /v1/repl/stream", func(w http.ResponseWriter, r *http.Request) {
		streams.Add(1)
		w.Header().Set("X-Repl-Last-Seq", "0")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		<-r.Context().Done() // mute: the silent-partition shape
	})
	stub := httptest.NewServer(mux)
	t.Cleanup(func() { stub.CloseClientConnections(); stub.Close() })

	f := startFollower(t, stub.URL)
	deadline := time.Now().Add(20 * time.Second)
	for streams.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never cut the silent stream (streams=%d, err=%q)",
				streams.Load(), f.repl().LastStreamError)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := f.repl().LastStreamError; !strings.Contains(got, "silent") {
		t.Fatalf("stream error %q does not mention the stall", got)
	}
}

// TestDivergedFollowerHaltsReplication streams a poisoned tail — a real
// retract record re-shipped at the next seq, a no-op for a follower whose
// state already reflects it — and requires the follower loop to HALT: no
// reconnect may resume past a record that was mirrored but never applied.
func TestDivergedFollowerHaltsReplication(t *testing.T) {
	ctx := context.Background()
	p := startPrimary(t, testProgram, nil)
	sess, err := p.cl.Open(ctx, server.OpenRequest{Subject: "w", Clearance: "s", Mode: "fir"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.cl.Assert(ctx, sess.Session, "s[emp(frank: salary -s-> high)]."); err != nil {
		t.Fatal(err)
	}
	if _, err := p.cl.Retract(ctx, sess.Session, "s[emp(frank: salary -s-> high)]."); err != nil {
		t.Fatal(err)
	}
	recs, err := p.store.ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	poison := recs[len(recs)-1]
	poison.Seq++
	recs = append(recs, poison)

	var streams atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/repl/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("X-Repl-Seq", "0")
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /v1/repl/stream", func(w http.ResponseWriter, r *http.Request) {
		streams.Add(1)
		w.Header().Set("X-Repl-Last-Seq", strconv.FormatUint(poison.Seq, 10))
		w.WriteHeader(http.StatusOK)
		for _, rec := range recs {
			w.Write(wal.EncodeFrame(rec)) //nolint:errcheck // test stream
		}
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	})
	stub := httptest.NewServer(mux)
	t.Cleanup(func() { stub.CloseClientConnections(); stub.Close() })

	// The loop logs its halt as it returns.
	halted := make(chan struct{})
	var haltOnce sync.Once
	f := startFollowerConfig(t, server.Config{Logf: func(format string, _ ...any) {
		if strings.Contains(format, "HALTED") {
			haltOnce.Do(func() { close(halted) })
		}
	}}, stub.URL)

	select {
	case <-halted:
	case <-time.After(20 * time.Second):
		st := f.repl()
		t.Fatalf("follower kept replicating past divergence (diverged=%v, err=%q)", st.Diverged, st.LastStreamError)
	}
	if st := f.repl(); !st.Diverged || st.Synced {
		t.Fatalf("diverged=%v synced=%v, want true/false", st.Diverged, st.Synced)
	}
	// Halted means no reconnect: a resumed stream would skip the record.
	n := streams.Load()
	time.Sleep(300 * time.Millisecond)
	if got := streams.Load(); got != n {
		t.Fatalf("a halted follower reconnected (%d streams, then %d)", n, got)
	}
	// The poisoned record is mirrored (the log is contiguous for the
	// post-mortem) but the node is out of the fleet.
	if got := f.store.LastSeq(); got != poison.Seq {
		t.Fatalf("local log at seq %d, want %d", got, poison.Seq)
	}
}

// TestCanceledWriteDoesNotDeposePrimary: a writer that hangs up mid-write
// (its context cancels while the primary is slow) must NOT depose the
// primary — deposal is irreversible, and a canceled call says nothing
// about the primary's health.
func TestCanceledWriteDoesNotDeposePrimary(t *testing.T) {
	ctx := context.Background()
	var asserts atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/session", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(server.OpenResponse{Session: "b-1", DB: "test", Epoch: 1}) //nolint:errcheck // test stub
	})
	mux.HandleFunc("POST /v1/assert", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // drain so close detection works
		if asserts.Add(1) == 1 {
			<-r.Context().Done() // the slow write the client abandons
			return
		}
		json.NewEncoder(w).Encode(server.UpdateResponse{Epoch: 2, Changed: 1}) //nolint:errcheck // test stub
	})
	mux.HandleFunc("GET /v1/repl/status", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(server.ReplicationStats{Role: "primary", Synced: true}) //nolint:errcheck // test stub
	})
	stub := httptest.NewServer(mux)
	t.Cleanup(func() { stub.CloseClientConnections(); stub.Close() })

	rt, err := replica.NewRouter(replica.RouterConfig{Primary: stub.URL})
	if err != nil {
		t.Fatal(err)
	}
	rh := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { rh.CloseClientConnections(); rh.Close() })
	rcl := server.NewClient(rh.URL, nil)

	sess, err := rcl.Open(ctx, server.OpenRequest{Subject: "w", Clearance: "s", Mode: "fir"})
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(ctx)
	go func() {
		for asserts.Load() == 0 { // hang up only once the write is in flight
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)
		wcancel()
	}()
	if _, err := rcl.Assert(wctx, sess.Session, "s[emp(gary: salary -s-> high)]."); err == nil {
		t.Fatal("abandoned write reported success")
	}
	wcancel()

	// The primary must still be in place and healthy: no failover, no
	// deposal, and the next write goes straight through.
	st, err := rcl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replication == nil || st.Replication.Failovers != 0 {
		t.Fatalf("router failed over after a canceled write: %+v", st.Replication)
	}
	if len(st.Replication.Nodes) != 1 || !st.Replication.Nodes[0].Healthy {
		t.Fatalf("primary deposed after a canceled write: %+v", st.Replication.Nodes)
	}
	if _, err := rcl.Assert(ctx, sess.Session, "s[emp(gary: salary -s-> high)]."); err != nil {
		t.Fatalf("write after the canceled one: %v", err)
	}
}

// TestRouterRejectsUnknownFields: the router decodes a request as a node
// does, so a field neither knows is a 400 bad-request, not a field dropped
// on the way to the backend.
func TestRouterRejectsUnknownFields(t *testing.T) {
	ctx := context.Background()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/session", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(server.OpenResponse{Session: "b-1", DB: "test", Epoch: 1}) //nolint:errcheck // test stub
	})
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)                                    //nolint:errcheck // test stub
		json.NewEncoder(w).Encode(server.QueryResponse{Query: "p(X)"}) //nolint:errcheck // test stub
	})
	mux.HandleFunc("GET /v1/repl/status", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(server.ReplicationStats{Role: "primary", Synced: true}) //nolint:errcheck // test stub
	})
	stub := httptest.NewServer(mux)
	t.Cleanup(func() { stub.CloseClientConnections(); stub.Close() })
	rt, err := replica.NewRouter(replica.RouterConfig{Primary: stub.URL})
	if err != nil {
		t.Fatal(err)
	}
	rh := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { rh.CloseClientConnections(); rh.Close() })
	sess, err := server.NewClient(rh.URL, nil).Open(ctx, server.OpenRequest{Subject: "w", Clearance: "s"})
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) (int, server.ErrorResponse) {
		t.Helper()
		resp, err := http.Post(rh.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck // a 200 has no error body
		return resp.StatusCode, e
	}
	if status, _ := post(fmt.Sprintf(`{"session":%q,"query":"p(X)"}`, sess.Session)); status != http.StatusOK {
		t.Fatalf("a well-formed query answered %d", status)
	}
	status, e := post(fmt.Sprintf(`{"session":%q,"query":"p(X)","querry":"q(X)"}`, sess.Session))
	if status != http.StatusBadRequest || e.Code != server.CodeBadRequest {
		t.Fatalf("a query with an unknown field answered %d %q, want 400 %q", status, e.Code, server.CodeBadRequest)
	}
}

// TestRouterRelaysBackendErrors: a backend's refusal reaches the client as
// the backend said it — a primary's 429 with its Retry-After, a 421 with the
// address writes go to — and a draining router's 503 says when to retry, as a
// draining server's does.
func TestRouterRelaysBackendErrors(t *testing.T) {
	ctx := context.Background()
	const elsewhere = "10.255.0.7:7070" // not a backend: the router cannot follow it
	var asserts atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/session", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(server.OpenResponse{Session: "b-1", DB: "test", Epoch: 1}) //nolint:errcheck // test stub
	})
	mux.HandleFunc("POST /v1/assert", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // test stub
		if asserts.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(server.ErrorResponse{Code: server.CodeOverloaded, Message: "shed"}) //nolint:errcheck // test stub
			return
		}
		w.WriteHeader(http.StatusMisdirectedRequest)
		json.NewEncoder(w).Encode(server.ErrorResponse{Code: server.CodeNotPrimary, Message: "not primary", Primary: elsewhere}) //nolint:errcheck // test stub
	})
	mux.HandleFunc("GET /v1/repl/status", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(server.ReplicationStats{Role: "primary", Synced: true}) //nolint:errcheck // test stub
	})
	stub := httptest.NewServer(mux)
	t.Cleanup(func() { stub.CloseClientConnections(); stub.Close() })

	rt, err := replica.NewRouter(replica.RouterConfig{Primary: stub.URL})
	if err != nil {
		t.Fatal(err)
	}
	rh := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { rh.CloseClientConnections(); rh.Close() })
	rcl := server.NewClient(rh.URL, nil)
	sess, err := rcl.Open(ctx, server.OpenRequest{Subject: "w", Clearance: "s", Mode: "fir"})
	if err != nil {
		t.Fatal(err)
	}
	refusal := func(err error) *server.RemoteError {
		t.Helper()
		var re *server.RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("want a relayed refusal, got %v", err)
		}
		return re
	}

	_, err = rcl.Assert(ctx, sess.Session, "s[emp(gary: salary -s-> high)].")
	if re := refusal(err); re.Status != http.StatusTooManyRequests || re.Code != server.CodeOverloaded || re.RetryAfter != 7*time.Second {
		t.Errorf("a primary's 429 relayed as %d %s, Retry-After %s; want 429 overloaded, 7s", re.Status, re.Code, re.RetryAfter)
	}
	_, err = rcl.Assert(ctx, sess.Session, "s[emp(gary: salary -s-> high)].")
	if re := refusal(err); re.Status != http.StatusMisdirectedRequest || re.Code != server.CodeNotPrimary || re.Primary != elsewhere {
		t.Errorf("a 421 relayed as %d %s, primary %q; want 421 not-primary, %q", re.Status, re.Code, re.Primary, elsewhere)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, stop := context.WithCancel(ctx)
	stop()
	if err := rt.Serve(sctx, ln, time.Second); err != nil {
		t.Fatal(err)
	}
	_, err = rcl.Assert(ctx, sess.Session, "s[emp(gary: salary -s-> high)].")
	if re := refusal(err); re.Status != http.StatusServiceUnavailable || re.RetryAfter != time.Second {
		t.Errorf("a draining router answered %d, Retry-After %s; want 503, 1s", re.Status, re.RetryAfter)
	}
}

// TestRouterForwardsPastStaleBrownout: a session writes through the router,
// its pinned replica applies the write — retiring the cached answer into the
// brownout table — and is then saturated, so it answers the session's next
// read from that table. The answer is the one from before the write and says
// so by its epoch: the read-your-writes floor turns it down and the read goes
// to the primary.
func TestRouterForwardsPastStaleBrownout(t *testing.T) {
	const maxInflight = 4 // exactly one cost-4 read at a time
	const maxQueue = 4 * maxInflight
	var hold atomic.Bool
	parked, release := make(chan struct{}, 1), make(chan struct{})
	p := startPrimary(t, testProgram, nil)
	f := startFollowerConfig(t, server.Config{
		QueryTimeout: time.Minute,
		MaxInflight:  maxInflight,
		MaxStale:     time.Minute,
		StreamFaults: func(ev faultinject.FileEvent, _ int64) faultinject.FileAction {
			if ev == faultinject.ServerQueryWork && hold.Load() {
				select {
				case parked <- struct{}{}:
				default:
				}
				<-release
			}
			return faultinject.FileOK
		},
	}, p.url)
	waitApplied(t, p, f)
	rurl := startRouter(t, replica.RouterConfig{
		Primary: p.url, Replicas: []replica.BackendSpec{{Addr: f.url}}, RYWHold: 50 * time.Millisecond})
	rc := server.NewClient(rurl, nil)
	waitHealthyReplicas(t, rc, 1)

	ctx := context.Background()
	sess, err := rc.Open(ctx, server.OpenRequest{Subject: "ryw", Clearance: "s"})
	if err != nil {
		t.Fatal(err)
	}
	// Joined to level(C), which no write changes: a single-goal entry
	// would be patched by the write, not retired.
	const query = "L[emp(K: salary -C-> V)], level(C)"
	read := func() *server.QueryResponse {
		t.Helper()
		resp, err := rc.QueryContext(ctx, server.QueryRequest{Session: sess.Session, Query: query})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	before := read() // cached on the replica
	if _, err := rc.Assert(ctx, sess.Session, "u[emp(carol: salary -u-> low)]."); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, p, f)

	// Saturate the replica, not through the router: one read parks inside its
	// admitted span, maxQueue more queue behind it, the next one is shed.
	direct, err := f.cl.Open(ctx, server.OpenRequest{Subject: "flood", Clearance: "s"})
	if err != nil {
		t.Fatal(err)
	}
	hold.Store(true)
	var readers sync.WaitGroup
	defer readers.Wait()
	defer close(release)
	flood := func(i int) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			f.cl.QueryContext(ctx, server.QueryRequest{ //nolint:errcheck // shed expected once the stall lifts
				Session: direct.Session, Query: fmt.Sprintf("s[emp(flood%d: salary -u-> V)]", i)})
		}()
	}
	flood(0)
	<-parked
	for i := 1; i <= maxQueue; i++ {
		flood(i)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st, err := f.cl.Stats(ctx)
		if err == nil && st.Admission.Queued == maxQueue {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the replica's admission queue never filled (err=%v, stats=%+v)", err, st)
		}
	}

	after := read()
	if after.StaleMS != 0 || len(after.Answers) != len(before.Answers)+1 {
		t.Errorf("the session's read after its write: stale_ms=%d, %d answers, want the fresh %d",
			after.StaleMS, len(after.Answers), len(before.Answers)+1)
	}
	if st, err := f.cl.Stats(ctx); err != nil || st.Admission.StaleServed == 0 {
		t.Errorf("the saturated replica served no brownout answer (err=%v): the router was never offered one", err)
	}
	if rs := routerStats(t, rc); rs.RYWForwards != 1 {
		t.Errorf("router ryw_forwards = %d, want the one read forwarded past the stale answer", rs.RYWForwards)
	}
}

// TestRouterDrainClosesSilentConnections: a connection the router accepted
// that never sends a request does not hold its drain: with a 1 s drain, Serve
// returns nil within 2 s.
func TestRouterDrainClosesSilentConnections(t *testing.T) {
	rt, err := replica.NewRouter(replica.RouterConfig{Primary: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- rt.Serve(ctx, ln, time.Second) }()
	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// The silent connection was accepted before this one answers.
	resp, err := http.Get("http://" + ln.Addr().String() + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()
	start := time.Now()
	cancel()
	if err := <-served; err != nil || time.Since(start) > 2*time.Second {
		t.Fatalf("router drain with a silent connection open returned %v after %v", err, time.Since(start))
	}
}

// TestRouterAnswersBackendFailures503: a backend the router cannot reach,
// and one whose reply breaks off mid-body, are transient failures below the
// protocol, and the router answers both 503 overloaded with Retry-After: 1,
// where a node's own unclassified error would read as a 400.
func TestRouterAnswersBackendFailures503(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/session", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // test stub
		w.Header().Set("Content-Length", "100")
		io.WriteString(w, `{"session":"b-`) //nolint:errcheck // a reply cut short
	})
	broken := httptest.NewServer(mux)
	t.Cleanup(func() { broken.CloseClientConnections(); broken.Close() })
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close() // nothing listens there now
	for _, c := range []struct{ name, primary string }{{"unreachable", deadAddr}, {"broken reply", broken.URL}} {
		rt, err := replica.NewRouter(replica.RouterConfig{Primary: c.primary})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/session", strings.NewReader(`{"subject":"w","clearance":"u"}`)))
		var e server.ErrorResponse
		json.Unmarshal(rec.Body.Bytes(), &e) //nolint:errcheck // checked by its code below
		if rec.Code != http.StatusServiceUnavailable || e.Code != server.CodeOverloaded || rec.Header().Get("Retry-After") != "1" {
			t.Errorf("%s backend: the router answered %d %q, Retry-After %q; want 503 %q, 1",
				c.name, rec.Code, e.Code, rec.Header().Get("Retry-After"), server.CodeOverloaded)
		}
	}
}
