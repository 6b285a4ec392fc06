package server_test

import (
	"context"
	"encoding/json"
	"errors"
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
	"repro/internal/server"
	"repro/internal/wal"
)

// replServer opens a WAL-backed server in the given role and serves it over
// httptest. Boot loads apply only to primaries (a follower's state arrives
// over the stream).
func replServer(t *testing.T, dir string, role server.Role, primaryAddr string) (*server.Server, *server.Client, *wal.Store, string) {
	t.Helper()
	store, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := server.New(server.Config{WAL: store, Role: role, PrimaryAddr: primaryAddr})
	var boot map[string]string
	if role == server.RolePrimary {
		boot = map[string]string{"test": testProgram}
	}
	if err := srv.Recover(rec, boot); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, server.NewClient(hs.URL, hs.Client()), store, hs.URL
}

// mirrorAll ships every primary WAL record after `from` into the follower
// through the same ApplyReplicated path the replication stream uses.
func mirrorAll(t *testing.T, fsrv *server.Server, pstore *wal.Store, from uint64) uint64 {
	t.Helper()
	recs, err := pstore.ReadFrom(from, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := fsrv.ApplyReplicated(rec); err != nil {
			t.Fatalf("applying replicated seq %d: %v", rec.Seq, err)
		}
		from = rec.Seq
	}
	return from
}

func TestFollowerMirrorsPrimaryAndRefusesWrites(t *testing.T) {
	ctx := context.Background()
	_, pc, pstore, purl := replServer(t, t.TempDir(), server.RolePrimary, "")
	ps := openAt(t, pc, "s", "")
	if _, err := pc.Assert(ctx, ps, "s[emp(carol: salary -s-> top)]."); err != nil {
		t.Fatal(err)
	}

	fsrv, fc, _, _ := replServer(t, t.TempDir(), server.RoleFollower, purl)
	mirrorAll(t, fsrv, pstore, 0)
	if got, want := fsrv.Stats().Replication.AppliedSeq, pstore.LastSeq(); got != want {
		t.Fatalf("follower applied %d, primary at %d", got, want)
	}

	// Reads on the follower answer exactly as the primary does.
	fs := openAt(t, fc, "s", "")
	want, got := queryAll(t, pc, ps), queryAll(t, fc, fs)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("follower answers diverged:\n primary  %v\n follower %v", want, got)
	}

	// Writes are refused with the typed misdirect carrying the primary.
	_, err := fc.Assert(ctx, fs, "s[emp(dave: salary -s-> top)].")
	var re *server.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("follower write error = %v, want *RemoteError", err)
	}
	if re.Status != http.StatusMisdirectedRequest || re.Code != server.CodeNotPrimary {
		t.Fatalf("follower write rejected with (%d, %s), want (421, %s)", re.Status, re.Code, server.CodeNotPrimary)
	}
	if re.Primary != purl {
		t.Fatalf("rejection advertises primary %q, want %q", re.Primary, purl)
	}
	// Loads are writes too.
	if err := fsrv.Load("other", testProgram); err == nil {
		t.Fatal("follower accepted a Load")
	} else {
		var npe *server.NotPrimaryError
		if !errors.As(err, &npe) || npe.Primary != purl {
			t.Fatalf("follower Load error = %v, want *NotPrimaryError for %s", err, purl)
		}
	}
}

// TestClientFollowsTheLeader is the follow-the-leader move a caller makes
// with the typed rejection: write to whatever node it knows, and when that
// node is a replica, retry against the address the 421 carries.
func TestClientFollowsTheLeader(t *testing.T) {
	ctx := context.Background()
	_, pc, pstore, purl := replServer(t, t.TempDir(), server.RolePrimary, "")
	fsrv, fc, _, _ := replServer(t, t.TempDir(), server.RoleFollower, purl)
	mirrorAll(t, fsrv, pstore, 0)

	fs := openAt(t, fc, "s", "")
	_, err := fc.Assert(ctx, fs, "s[emp(erin: salary -s-> top)].")
	var re *server.RemoteError
	if !errors.As(err, &re) || re.Primary == "" {
		t.Fatalf("want a misdirect carrying the primary, got %v", err)
	}
	leader := fc.WithEndpoints(re.Primary)
	ls := openAt(t, leader, "s", "")
	if _, err := leader.Assert(ctx, ls, "s[emp(erin: salary -s-> top)]."); err != nil {
		t.Fatalf("write to the advertised primary: %v", err)
	}
	// The write landed on the primary, visible to its readers.
	ps := openAt(t, pc, "s", "")
	found := false
	for _, a := range queryAll(t, pc, ps) {
		if a["K"] == "erin" {
			found = true
		}
	}
	if !found {
		t.Fatal("followed write not visible on the primary")
	}
}

func TestReplStreamServesContiguousFrames(t *testing.T) {
	psrv, pc, pstore, purl := replServer(t, t.TempDir(), server.RolePrimary, "")
	ctx := context.Background()
	ps := openAt(t, pc, "s", "")
	for _, cl := range []string{
		"s[emp(carol: salary -s-> top)].",
		"s[emp(dave: salary -s-> top)].",
	} {
		if _, err := pc.Assert(ctx, ps, cl); err != nil {
			t.Fatal(err)
		}
	}
	_ = psrv

	resp, err := http.Get(purl + "/v1/repl/stream?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	last, err := strconv.ParseUint(resp.Header.Get("X-Repl-Last-Seq"), 10, 64)
	if err != nil || last != pstore.LastSeq() {
		t.Fatalf("X-Repl-Last-Seq = %q, want %d", resp.Header.Get("X-Repl-Last-Seq"), pstore.LastSeq())
	}
	sc := wal.NewFrameScanner(resp.Body)
	var cur uint64
	for cur < last {
		rec, err := sc.Next()
		if err != nil {
			t.Fatalf("frame after seq %d: %v", cur, err)
		}
		if rec.Type == wal.TypeHeartbeat {
			continue
		}
		if rec.Seq != cur+1 {
			t.Fatalf("stream skipped: got seq %d after %d", rec.Seq, cur)
		}
		cur = rec.Seq
	}
}

// A batch must be sent exactly once: the idle-heartbeat path used to loop
// back without clearing the served batch, so every heartbeat replayed the
// last data frames and the follower tore the stream down on the duplicate.
func TestReplStreamDoesNotReplayBatchAfterHeartbeat(t *testing.T) {
	_, pc, _, purl := replServer(t, t.TempDir(), server.RolePrimary, "")
	ctx := context.Background()
	ps := openAt(t, pc, "s", "")
	if _, err := pc.Assert(ctx, ps, "s[emp(carol: salary -s-> top)]."); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(purl + "/v1/repl/stream?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	// Read across a few heartbeat periods, then cut the stream.
	stop := time.AfterFunc(1500*time.Millisecond, func() { resp.Body.Close() })
	defer stop.Stop()
	sc := wal.NewFrameScanner(resp.Body)
	var cur uint64
	heartbeats := 0
	for {
		rec, err := sc.Next()
		if err != nil {
			break // the AfterFunc cut the connection
		}
		if rec.Type == wal.TypeHeartbeat {
			heartbeats++
			continue
		}
		if rec.Seq != cur+1 {
			t.Fatalf("duplicate or skipped data frame: got seq %d after %d", rec.Seq, cur)
		}
		cur = rec.Seq
	}
	if cur == 0 {
		t.Fatal("stream served no data frames")
	}
	if heartbeats == 0 {
		t.Fatal("stream went idle for 1.5s but sent no heartbeat")
	}
}

func TestReplStreamCompactedIs410(t *testing.T) {
	psrv, pc, _, purl := replServer(t, t.TempDir(), server.RolePrimary, "")
	ctx := context.Background()
	ps := openAt(t, pc, "s", "")
	if _, err := pc.Assert(ctx, ps, "s[emp(carol: salary -s-> top)]."); err != nil {
		t.Fatal(err)
	}
	// Checkpoint prunes the log prefix: a follower at seq 0 is behind the
	// compaction horizon and must re-bootstrap.
	if err := psrv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Assert(ctx, ps, "s[emp(dave: salary -s-> top)]."); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(purl + "/v1/repl/stream?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("compacted stream status %d, want 410", resp.StatusCode)
	}
}

func TestSnapshotBootstrapsFollower(t *testing.T) {
	ctx := context.Background()
	psrv, pc, pstore, purl := replServer(t, t.TempDir(), server.RolePrimary, "")
	ps := openAt(t, pc, "s", "")
	if _, err := pc.Assert(ctx, ps, "s[emp(carol: salary -s-> top)]."); err != nil {
		t.Fatal(err)
	}
	if err := psrv.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(purl + "/v1/repl/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp.StatusCode)
	}
	seq, err := strconv.ParseUint(resp.Header.Get("X-Repl-Seq"), 10, 64)
	if err != nil || seq != pstore.LastSeq() {
		t.Fatalf("X-Repl-Seq = %q, want %d", resp.Header.Get("X-Repl-Seq"), pstore.LastSeq())
	}
	ck, err := wal.DecodeFrameBytes(body)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Type != wal.TypeCheckpoint || ck.Seq != seq {
		t.Fatalf("snapshot frame = (type %d, seq %d), want checkpoint at %d", ck.Type, ck.Seq, seq)
	}

	fsrv, fc, fstore, _ := replServer(t, t.TempDir(), server.RoleFollower, purl)
	if err := fsrv.InstallSnapshot(seq, ck.Payload); err != nil {
		t.Fatal(err)
	}
	if got := fsrv.Stats().Replication.AppliedSeq; got != seq {
		t.Fatalf("follower applied %d after bootstrap, want %d", got, seq)
	}
	if got := fstore.LastSeq(); got != seq {
		t.Fatalf("follower WAL positioned at %d, want %d", got, seq)
	}
	// Post-bootstrap, the tail streams in at the very next seq.
	if _, err := pc.Assert(ctx, ps, "s[emp(dave: salary -s-> top)]."); err != nil {
		t.Fatal(err)
	}
	mirrorAll(t, fsrv, pstore, seq)
	fs := openAt(t, fc, "s", "")
	if want, got := queryAll(t, pc, ps), queryAll(t, fc, fs); !reflect.DeepEqual(want, got) {
		t.Fatalf("bootstrapped follower diverged:\n primary  %v\n follower %v", want, got)
	}
}

func TestPromoteLiftsWriteGate(t *testing.T) {
	ctx := context.Background()
	_, pc, pstore, purl := replServer(t, t.TempDir(), server.RolePrimary, "")
	ps := openAt(t, pc, "s", "")
	if _, err := pc.Assert(ctx, ps, "s[emp(carol: salary -s-> top)]."); err != nil {
		t.Fatal(err)
	}
	fsrv, fc, fstore, furl := replServer(t, t.TempDir(), server.RoleFollower, purl)
	mirrorAll(t, fsrv, pstore, 0)

	resp, err := http.Post(furl+"/v1/repl/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var promoted struct {
		Role    string `json:"role"`
		LastSeq uint64 `json:"last_seq"`
	}
	err = json.NewDecoder(resp.Body).Decode(&promoted)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: HTTP %d, %v", resp.StatusCode, err)
	}
	last := promoted.LastSeq
	if got := fsrv.Stats().Replication.Role; got != "primary" || promoted.Role != "primary" {
		t.Fatalf("role after promote = %s (answered %s)", got, promoted.Role)
	}
	if last != pstore.LastSeq() {
		t.Fatalf("promotion resumes at %d, want %d", last, pstore.LastSeq())
	}
	fs := openAt(t, fc, "s", "")
	up, err := fc.Assert(ctx, fs, "s[emp(erin: salary -s-> top)].")
	if err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	if up.Seq != last+1 {
		t.Fatalf("first post-promotion write got seq %d, want %d", up.Seq, last+1)
	}
	// The new reign's log continues the old one's numbering record for
	// record: remaining followers can resume from it with no translation.
	recs, err := fstore.ReadFrom(last, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != last+1 {
		t.Fatalf("promoted log tail = %v", recs)
	}
}

func TestFollowerReadyzTracksSync(t *testing.T) {
	_, _, pstore, purl := replServer(t, t.TempDir(), server.RolePrimary, "")
	fsrv, _, _, furl := replServer(t, t.TempDir(), server.RoleFollower, purl)

	get := func() int {
		resp, err := http.Get(furl + "/v1/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get(); got != http.StatusServiceUnavailable {
		t.Fatalf("unsynced follower readyz = %d, want 503", got)
	}
	mirrorAll(t, fsrv, pstore, 0)
	fsrv.MarkSynced()
	if got := get(); got != http.StatusOK {
		t.Fatalf("synced follower readyz = %d, want 200", got)
	}
}

// TestMirroredButUnappliedRecordDiverges pins the contract for the one gap
// the resume protocol cannot close: a record durably mirrored into the
// follower's WAL that the serving state could not apply. The node must
// fail out permanently — otherwise the replicator resumes from the local
// seq on reconnect and the record is silently skipped forever. Whatever
// keeps the record from applying — a no-op here, an unknown database, a
// lint refusal, a clause above the record's clearance — the rule is one.
func TestMirroredButUnappliedRecordDiverges(t *testing.T) {
	// update ships an update record the primary never logged.
	update := func(db, clauses, clearance string) func(*testing.T, *wal.Store) wal.Record {
		return func(t *testing.T, _ *wal.Store) wal.Record {
			payload, err := json.Marshal(map[string]string{"db": db, "clauses": clauses, "clearance": clearance})
			if err != nil {
				t.Fatal(err)
			}
			return wal.Record{Type: wal.TypeUpdate, Payload: payload}
		}
	}
	rows := []struct {
		name   string
		poison func(*testing.T, *wal.Store) wal.Record
		reason string // in the divergence's message
	}{
		// Re-ship the primary's last update: the retract's clause is already
		// gone, so the apply is a no-op — exactly the signal a real stream
		// produces when follower state has drifted from the log.
		{"no-op", func(t *testing.T, pstore *wal.Store) wal.Record {
			recs, err := pstore.ReadFrom(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			last := recs[len(recs)-1]
			if last.Type != wal.TypeUpdate {
				t.Fatalf("last primary record has type %d, want an update", last.Type)
			}
			return last
		}, "no-op"},
		{"unknown-database", update("nosuch", "s[emp(dave: salary -s-> top)].", "s"), "unknown database"},
		// Asserted at u, classified s: the dominance order fails.
		{"lint-refused", update("test", "u[emp(dave: salary -s-> top)].", "s"), "ML003"},
		{"above-clearance", update("test", "s[emp(dave: salary -s-> top)].", "u"), "denied"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ctx := context.Background()
			_, pc, pstore, purl := replServer(t, t.TempDir(), server.RolePrimary, "")
			ps := openAt(t, pc, "s", "")
			if _, err := pc.Assert(ctx, ps, "s[emp(carol: salary -s-> top)]."); err != nil {
				t.Fatal(err)
			}
			if _, err := pc.Retract(ctx, ps, "s[emp(carol: salary -s-> top)]."); err != nil {
				t.Fatal(err)
			}

			fsrv, fc, fstore, _ := replServer(t, t.TempDir(), server.RoleFollower, purl)
			mirrorAll(t, fsrv, pstore, 0)
			fsrv.MarkSynced()
			if !fsrv.Stats().Replication.Synced {
				t.Fatal("caught-up follower should report synced")
			}

			poison := row.poison(t, pstore)
			poison.Seq = fstore.LastSeq() + 1
			aerr := fsrv.ApplyReplicated(poison)
			if !errors.Is(aerr, server.ErrDiverged) || !strings.Contains(aerr.Error(), row.reason) {
				t.Fatalf("ApplyReplicated = %v, want ErrDiverged naming %q", aerr, row.reason)
			}
			// The record is still mirrored: the local log stays contiguous for
			// the post-mortem.
			if got := fstore.LastSeq(); got != poison.Seq {
				t.Fatalf("local log at seq %d, want %d (record must be mirrored)", got, poison.Seq)
			}
			// No checkpoint covers the record: a restart replays it again.
			if err := fsrv.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if got := fstore.StatsSnapshot().LastCheckpointSeq; got >= poison.Seq {
				t.Fatalf("a checkpoint at seq %d covers the unapplied record %d", got, poison.Seq)
			}
			// The node is failed out, stickily: MarkSynced cannot resurrect it.
			if st := fsrv.Stats().Replication; !st.Diverged || st.Synced {
				t.Fatalf("diverged=%v synced=%v, want true/false", st.Diverged, st.Synced)
			}
			fsrv.MarkSynced()
			if fsrv.Stats().Replication.Synced {
				t.Fatal("MarkSynced resurrected a diverged follower")
			}
			// Readiness fails with the permanent status; the repl view carries
			// it.
			ready := httptest.NewRecorder()
			fsrv.Handler().ServeHTTP(ready, httptest.NewRequest(http.MethodGet, "/v1/readyz", nil))
			var h server.HealthResponse
			if err := json.Unmarshal(ready.Body.Bytes(), &h); err != nil || ready.Code != http.StatusServiceUnavailable || h.Status != "diverged" {
				t.Fatalf("readyz answered %d %s, want 503 diverged", ready.Code, ready.Body)
			}
			st, serr := fc.ReplStatus(ctx)
			if serr != nil {
				t.Fatal(serr)
			}
			if !st.Diverged || st.Synced {
				t.Fatalf("repl status diverged=%v synced=%v, want true/false", st.Diverged, st.Synced)
			}
			if st.LastStreamError == "" {
				t.Fatal("divergence reason missing from the repl status")
			}
		})
	}
}

// TestFollowerDrainsThroughServe: a follower is a Server, and Serve drains
// it as it drains a primary. With a query held in flight by the
// ServerQueryWork slow fault, canceling Serve closes the gate — health says
// draining and new work is refused — while the query still finishes, and the
// final checkpoint leaves the follower's log nothing to replay.
func TestFollowerDrainsThroughServe(t *testing.T) {
	ctx := context.Background()
	_, pc, pstore, purl := replServer(t, t.TempDir(), server.RolePrimary, "")
	ps := openAt(t, pc, "s", "")
	if _, err := pc.Assert(ctx, ps, "s[emp(carol: salary -s-> top)]."); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var hold atomic.Bool
	parked, release := make(chan struct{}, 1), make(chan struct{})
	fsrv := server.New(server.Config{
		WAL: store, Role: server.RoleFollower, PrimaryAddr: purl,
		StreamFaults: func(ev faultinject.FileEvent, _ int64) faultinject.FileAction {
			if ev != faultinject.ServerQueryWork || !hold.Load() {
				return faultinject.FileOK
			}
			parked <- struct{}{}
			<-release
			return faultinject.FileSlow
		},
	})
	if err := fsrv.Recover(rec, nil); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithCancel(ctx)
	var serveErr error
	served := make(chan struct{})
	go func() { serveErr = fsrv.Serve(sctx, ln, 10*time.Second); close(served) }()
	t.Cleanup(func() { cancel(); <-served })
	var releaseOnce sync.Once
	unpark := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unpark)

	fc := server.NewClient("http://"+ln.Addr().String(), nil)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if st := fsrv.Stats().Replication; st.Synced && st.AppliedSeq == pstore.LastSeq() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", fsrv.Stats().Replication)
		}
	}
	fs := openAt(t, fc, "s", "")
	hold.Store(true)
	queried := make(chan error, 1)
	go func() {
		_, err := fc.QueryContext(ctx, server.QueryRequest{Session: fs, Query: "s[emp(K: salary -s-> V)]"})
		queried <- err
	}()
	<-parked
	cancel()

	h := fsrv.Handler()
	call := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var hr server.HealthResponse
		if err := json.NewDecoder(call(http.MethodGet, "/v1/healthz", "").Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		if hr.Status == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a draining follower's health says %q, want draining", hr.Status)
		}
	}
	if got := call(http.MethodPost, "/v1/session", `{"subject":"late","clearance":"s"}`); got.Code != http.StatusServiceUnavailable {
		t.Fatalf("a draining follower answered a new session %d, want 503: %s", got.Code, got.Body)
	}
	select {
	case <-served:
		t.Fatalf("Serve returned (%v) with a query in flight", serveErr)
	default:
	}
	unpark()
	if err := <-queried; err != nil {
		t.Fatalf("the query in flight at the drain: %v", err)
	}
	<-served
	if serveErr != nil {
		t.Fatalf("follower drain: %v", serveErr)
	}

	reopened, rec2, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if len(rec2.Records) != 0 || rec2.CheckpointSeq != pstore.LastSeq() {
		t.Fatalf("reopened follower log replays %d record(s) over a checkpoint at %d, want 0 over %d",
			len(rec2.Records), rec2.CheckpointSeq, pstore.LastSeq())
	}
}
