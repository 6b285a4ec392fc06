package server_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/wal"
)

// durableServer opens (or reopens) a WAL in dir, builds a server on it,
// runs recovery with testProgram as the boot load, and serves it over
// httptest. The returned store lets the test simulate a crash by closing
// it without the drain-time checkpoint.
func durableServer(t *testing.T, dir string) (*server.Server, *server.Client, *wal.Store, *wal.Recovery) {
	t.Helper()
	store, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := server.New(server.Config{WAL: store})
	if err := srv.Recover(rec, map[string]string{"test": testProgram}); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, server.NewClient(hs.URL, hs.Client()), store, rec
}

func queryAll(t *testing.T, c *server.Client, sess string) []map[string]string {
	t.Helper()
	resp, err := c.QueryContext(context.Background(), server.QueryRequest{
		Session: sess, Query: "L[emp(K: salary -C-> V)]"})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Answers
}

func TestDurableUpdatesSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	_, c, store, _ := durableServer(t, dir)
	s := openAt(t, c, "s", "")
	up1, err := c.Assert(ctx, s, "s[emp(carol: salary -s-> top)].")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Retract(ctx, s, "u[emp(bob: salary -u-> low)]."); err != nil {
		t.Fatal(err)
	}
	up3, err := c.Assert(ctx, s, "c[emp(dave: salary -c-> mid)].")
	if err != nil {
		t.Fatal(err)
	}
	before := queryAll(t, c, s)
	store.Close() // crash: no drain, no final checkpoint

	_, c2, _, rec := durableServer(t, dir)
	// 1 load + 3 updates were logged; no checkpoint was ever cut.
	if got := len(rec.Records); got != 4 {
		t.Errorf("replayed %d records, want 4", got)
	}
	s2 := openAt(t, c2, "s", "")
	after := queryAll(t, c2, s2)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("answers diverged across crash:\n before %v\n after  %v", before, after)
	}
	// Epochs never regress across recovery: the replayed program resumes at
	// the exact pre-crash epoch, and the next update moves strictly past it.
	st, err := c2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Databases["test"].Epoch; got != up3.Epoch {
		t.Errorf("recovered epoch %d, want pre-crash epoch %d", got, up3.Epoch)
	}
	if up3.Epoch <= up1.Epoch {
		t.Fatalf("epochs not increasing pre-crash: %d then %d", up1.Epoch, up3.Epoch)
	}
	up4, err := c2.Assert(ctx, s2, "s[emp(erin: salary -s-> top)].")
	if err != nil {
		t.Fatal(err)
	}
	if up4.Epoch != up3.Epoch+1 {
		t.Errorf("post-recovery update got epoch %d, want %d", up4.Epoch, up3.Epoch+1)
	}
}

func TestRecoveryFromCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	srv, c, store, _ := durableServer(t, dir)
	s := openAt(t, c, "s", "")
	if _, err := c.Assert(ctx, s, "s[emp(carol: salary -s-> top)]."); err != nil {
		t.Fatal(err)
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	up, err := c.Assert(ctx, s, "c[emp(dave: salary -c-> mid)].")
	if err != nil {
		t.Fatal(err)
	}
	before := queryAll(t, c, s)
	store.Close()

	_, c2, _, rec := durableServer(t, dir)
	if rec.CheckpointsLoaded != 1 {
		t.Errorf("CheckpointsLoaded = %d, want 1", rec.CheckpointsLoaded)
	}
	if got := len(rec.Records); got != 1 {
		t.Errorf("replayed %d tail records, want 1 (the post-checkpoint assert)", got)
	}
	s2 := openAt(t, c2, "s", "")
	if after := queryAll(t, c2, s2); !reflect.DeepEqual(before, after) {
		t.Errorf("answers diverged across checkpointed crash:\n before %v\n after  %v", before, after)
	}
	st, err := c2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Databases["test"].Epoch; got != up.Epoch {
		t.Errorf("recovered epoch %d, want %d (checkpoint epoch + tail replay)", got, up.Epoch)
	}
	if st.Durability == nil {
		t.Fatal("stats missing durability section on a durable server")
	}
	if st.Durability.Recovery.RecordsReplayed != 1 || st.Durability.Recovery.CheckpointsLoaded != 1 {
		t.Errorf("recovery counters = %+v, want 1 checkpoint loaded, 1 record replayed", st.Durability.Recovery)
	}
}

func TestWritesRefusedWhileRecovering(t *testing.T) {
	dir := t.TempDir()
	store, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := server.New(server.Config{WAL: store})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := server.NewClient(hs.URL, hs.Client())
	ctx := context.Background()

	// Before Recover runs, the server is not ready: liveness stays 200 but
	// reports recovering, readiness is 503, and writes are refused.
	if !srv.Recovering() {
		t.Fatal("a WAL-configured server must boot in the recovering state")
	}
	if err := c.Healthy(ctx); err != nil {
		t.Errorf("liveness must hold during recovery: %v", err)
	}
	resp, err := hs.Client().Get(hs.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during recovery = %d, want 503", resp.StatusCode)
	}
	_, err = c.Open(ctx, server.OpenRequest{Subject: "t", Clearance: "s"})
	re := asRemote(t, err)
	if re.Status != http.StatusServiceUnavailable || re.Code != server.CodeRecovering {
		t.Errorf("open during recovery = (%d, %s), want (503, recovering)", re.Status, re.Code)
	}

	if err := srv.Recover(rec, map[string]string{"test": testProgram}); err != nil {
		t.Fatal(err)
	}
	resp, err = hs.Client().Get(hs.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz after recovery = %d, want 200", resp.StatusCode)
	}
	s := openAt(t, c, "s", "")
	if _, err := c.Assert(ctx, s, "s[emp(carol: salary -s-> top)]."); err != nil {
		t.Errorf("assert after recovery: %v", err)
	}
}

func asRemote(t *testing.T, err error) *server.RemoteError {
	t.Helper()
	re, ok := err.(*server.RemoteError)
	if !ok {
		t.Fatalf("got %T (%v), want *RemoteError", err, err)
	}
	return re
}

func TestBootLoadSkippedForRecoveredDatabase(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	_, c, store, _ := durableServer(t, dir)
	s := openAt(t, c, "s", "")
	up, err := c.Assert(ctx, s, "s[emp(carol: salary -s-> top)].")
	if err != nil {
		t.Fatal(err)
	}
	store.Close()

	// The second boot passes the same -db style boot load; because "test"
	// was recovered from the log, the load must be skipped — reloading
	// would wipe carol and reset the epoch.
	_, c2, _, _ := durableServer(t, dir)
	s2 := openAt(t, c2, "s", "")
	resp, err := c2.QueryContext(ctx, server.QueryRequest{Session: s2,
		Query: "s[emp(carol: salary -s-> V)]"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("carol lost: a recovered database was clobbered by its boot load")
	}
	st, err := c2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Databases["test"].Epoch; got != up.Epoch {
		t.Errorf("epoch %d after reboot, want %d", got, up.Epoch)
	}
}

func TestNoOpUpdateIsNotLogged(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	_, c, store, _ := durableServer(t, dir)
	s := openAt(t, c, "s", "")
	// Retracting a clause that is not there changes nothing and must not
	// append a record: replay bumps the epoch once per logged update, so a
	// logged no-op would desynchronize recovered epochs.
	up, err := c.Retract(ctx, s, "s[emp(nobody: salary -s-> x)].")
	if err != nil {
		t.Fatal(err)
	}
	if up.Changed != 0 {
		t.Fatalf("phantom retract changed %d clauses", up.Changed)
	}
	store.Close()

	_, _, _, rec := durableServer(t, dir)
	if got := len(rec.Records); got != 1 {
		t.Errorf("log has %d records, want only the boot load", got)
	}
}

// TestLoadBetweenLookupAndCommit holds an update in the admission queue,
// behind a query parked at its query-work fault point, while a Load replaces
// the update's database. The update then lands where the log puts it, on
// the loaded program: a server recovered from the same log answers as the
// live one, at the same epoch.
func TestLoadBetweenLookupAndCommit(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	store, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var hold atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	srv := server.New(server.Config{
		WAL:         store,
		MaxInflight: 1, // the parked query fills it: the update queues
		StreamFaults: func(ev faultinject.FileEvent, _ int64) faultinject.FileAction {
			if ev == faultinject.ServerQueryWork && hold.CompareAndSwap(true, false) {
				close(parked)
				<-release
			}
			return faultinject.FileOK
		},
	})
	if err := srv.Recover(rec, map[string]string{"test": testProgram}); err != nil {
		t.Fatal(err)
	}
	open := func(srv *server.Server) *server.Session {
		t.Helper()
		sess, _, err := srv.Open(server.OpenRequest{Subject: "t", Clearance: "s"})
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	reader, writer := open(srv), open(srv)

	hold.Store(true)
	queried, updated := make(chan error, 1), make(chan error, 1)
	go func() {
		_, _, err := srv.Query(ctx, reader, server.QueryRequest{Query: "level(L)"})
		queried <- err
	}()
	<-parked
	go func() {
		_, err := srv.Update(ctx, writer, server.UpdateRequest{Clauses: "s[emp(carol: salary -s-> top)]."}, false)
		updated <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Admission.Queued != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the update never queued: %+v", srv.Stats().Admission)
		}
	}
	if err := srv.Load("test", testProgram); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-queried; err != nil {
		t.Fatal(err)
	}
	if err := <-updated; err != nil {
		t.Fatal(err)
	}

	state := func(srv *server.Server) (uint64, string) {
		t.Helper()
		_, answers, err := srv.Query(ctx, open(srv), server.QueryRequest{Query: "L[emp(K: salary -C-> V)]"})
		if err != nil {
			t.Fatal(err)
		}
		return srv.Stats().Databases["test"].Epoch, string(answers)
	}
	liveEpoch, live := state(srv)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store2, rec2, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store2.Close() })
	recovered := server.New(server.Config{WAL: store2})
	if err := recovered.Recover(rec2, nil); err != nil {
		t.Fatal(err)
	}
	recEpoch, replayed := state(recovered)
	if liveEpoch != recEpoch || live != replayed {
		t.Fatalf("live: epoch %d %s\nrecovered: epoch %d %s", liveEpoch, live, recEpoch, replayed)
	}
	if !strings.Contains(live, "carol") {
		t.Fatalf("the acknowledged write is missing: %s", live)
	}
}

// TestNoCheckpointWhileRecovering: a checkpoint cut before recovery ends —
// the checkpoint loop's, or the final one of the drain that follows a
// failed recovery — would cover the whole log with a state that holds only
// part of it, and the next boot would replay nothing past it. A failed
// Recover leaves the server recovering.
func TestNoCheckpointWhileRecovering(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, c, store, _ := durableServer(t, dir)
	if _, err := c.Assert(ctx, openAt(t, c, "s", ""), "s[emp(carol: salary -s-> top)]."); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Append(wal.TypeUpdate, []byte("{")); err != nil { // replay fails here
		t.Fatal(err)
	}
	store.Close() // a crash: no final checkpoint

	store, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := server.New(server.Config{WAL: store})
	checkpoint := func(when string) {
		t.Helper()
		if err := srv.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if seq := store.StatsSnapshot().LastCheckpointSeq; seq != 0 {
			t.Fatalf("%s, a checkpoint was cut at seq %d", when, seq)
		}
	}
	checkpoint("before Recover")
	if err := srv.Recover(rec, map[string]string{"test": testProgram}); err == nil {
		t.Fatal("Recover replayed an undecodable record")
	}
	if !srv.Recovering() {
		t.Fatal("a failed Recover lifted the recovering state")
	}
	checkpoint("after a failed Recover")
}
