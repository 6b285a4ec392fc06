// Package crash is the kill-crash recovery harness for multilogd. It runs
// the real daemon as a child process on a real data directory, drives it
// with acknowledged writes and a concurrent read storm, SIGKILLs it at an
// injected crashpoint inside the WAL layer (mid-append with a torn tail,
// after the write but before the fsync, mid-checkpoint between temp and
// rename — see internal/faultinject's file plans), restarts it, and then
// proves the durability contract:
//
//   - every write the client saw acknowledged is present after recovery;
//   - the one in-flight write (appended, maybe durable, never acked) is
//     either wholly present or wholly absent — probed, never assumed;
//   - the recovered daemon's answers are byte-equal to a reference
//     in-memory server that replays the same acknowledged writes, across
//     every clearance and belief mode;
//   - torn tails are detected by checksum and truncated, visible in the
//     /v1/stats recovery counters.
package crash

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
	"repro/internal/workload/serverload"
)

// Scenario is one cell of the crash matrix.
type Scenario struct {
	// Name labels the cell (test name, logs).
	Name string
	// Plan is the child's -crashplan, e.g. "kill-torn@wal.append.start:6".
	Plan string
	// Fsync is the child's -fsync mode: always, interval or never.
	Fsync string
	// CheckpointEvery tunes the child's -checkpoint-every so checkpoint
	// crashpoints actually fire. 0 keeps the default (effectively: no
	// checkpoint during a short run).
	CheckpointEvery int64
	// WantTruncation asserts that recovery truncated at least one record
	// (the torn-tail scenarios).
	WantTruncation bool
	// WriteStorm interleaves retracts of earlier acked facts with the
	// tracked asserts, so replay exercises the incremental delta machinery's
	// deletion path.
	WriteStorm bool
	// RuleWrites makes every fourth tracked op of the storm the assert, or
	// the retract, of a rule (crashRule) deriving a predicate new to Σ: the
	// doomed daemon's warm reductions take rule deltas, and the WAL the
	// recovered one replays mixes facts and rules.
	RuleWrites bool
}

// Matrix is the crashpoint × fsync-mode grid run by `make crash` and CI.
// The append crashpoints run under every fsync mode; the checkpoint
// crashpoints pin fsync=always and a tiny checkpoint threshold so the
// checkpointer races the kill.
func Matrix() []Scenario {
	var out []Scenario
	for _, fsync := range []string{"always", "interval", "never"} {
		out = append(out,
			Scenario{
				Name:           "mid-append-torn/" + fsync,
				Plan:           "kill-torn@wal.append.start:6",
				Fsync:          fsync,
				WantTruncation: true,
			},
			Scenario{
				Name:  "pre-fsync/" + fsync,
				Plan:  "kill@wal.append.written:6",
				Fsync: fsync,
			},
			Scenario{
				Name:  "post-fsync-pre-ack/" + fsync,
				Plan:  "kill@wal.append.synced:6",
				Fsync: fsync,
			},
		)
	}
	out = append(out,
		Scenario{
			Name:            "mid-checkpoint-temp",
			Plan:            "kill@wal.checkpoint.temp:1",
			Fsync:           "always",
			CheckpointEvery: 4,
		},
		Scenario{
			Name:            "post-checkpoint-rename",
			Plan:            "kill@wal.checkpoint.renamed:1",
			Fsync:           "always",
			CheckpointEvery: 4,
		},
		// Write-storm cells: mixed asserts and retracts up to the kill, so
		// recovery replays deletions through the same incremental path.
		Scenario{
			Name:           "write-storm-torn/always",
			Plan:           "kill-torn@wal.append.start:12",
			Fsync:          "always",
			WantTruncation: true,
			WriteStorm:     true,
		},
		Scenario{
			Name:       "write-storm-pre-fsync/interval",
			Plan:       "kill@wal.append.written:12",
			Fsync:      "interval",
			WriteStorm: true,
		},
		Scenario{
			Name:            "write-storm-checkpoint",
			Plan:            "kill@wal.checkpoint.renamed:1",
			Fsync:           "always",
			CheckpointEvery: 6,
			WriteStorm:      true,
		},
		Scenario{
			Name:           "rule-storm-torn/always",
			Plan:           "kill-torn@wal.append.start:14",
			Fsync:          "always",
			WantTruncation: true,
			WriteStorm:     true,
			RuleWrites:     true,
		},
	)
	return out
}

// programCfg is the served program's shape; the storm generator and the
// verification queries both derive from it.
var programCfg = workload.ProgramConfig{Levels: 3, Facts: 40, Rules: 4, Preds: 3, Seed: 7, Poly: 0.4}

const dbName = "crash"

// maxWrites bounds the tracked-write loop; every plan in Matrix fires well
// before this many appends.
const maxWrites = 64

// Harness runs scenarios against one built multilogd binary.
type Harness struct {
	// Bin is the multilogd binary path.
	Bin string
	// Logf receives progress lines (tests pass t.Logf).
	Logf func(format string, args ...any)
}

// BuildDaemon compiles cmd/multilogd into dir and returns the binary path.
func BuildDaemon(dir string) (string, error) {
	bin := filepath.Join(dir, "multilogd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/multilogd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building multilogd: %v\n%s", err, out)
	}
	return bin, nil
}

func (h *Harness) logf(format string, args ...any) {
	if h.Logf != nil {
		h.Logf(format, args...)
	}
}

// daemon is one child multilogd process. done is CLOSED once the child
// exits (exitErr holds Wait's verdict), so any number of killed/kill/
// waitExit calls can observe the exit.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	logs    *strings.Builder
	done    chan struct{}
	exitErr error
}

// start launches the daemon and waits until /v1/readyz is 200.
func (h *Harness) start(ctx context.Context, dir string, sc Scenario, progPath string, withPlan bool) (*daemon, error) {
	args := []string{
		"-db", dbName + "=" + progPath,
		"-data-dir", filepath.Join(dir, "data"),
		"-fsync", sc.Fsync,
		"-checkpoint-interval", "100ms",
		"-drain", "5s",
	}
	if sc.CheckpointEvery > 0 {
		args = append(args, "-checkpoint-every", fmt.Sprint(sc.CheckpointEvery))
	}
	if withPlan {
		args = append(args, "-crashplan", sc.Plan)
	}
	return h.launch(ctx, filepath.Join(dir, "addr"), args)
}

// launch starts one multilogd child with args (plus an ephemeral -addr,
// unless the caller pinned one, published through addrFile) and waits until
// /v1/readyz answers 200 — for a follower that means bootstrapped AND
// synced with its primary.
func (h *Harness) launch(ctx context.Context, addrFile string, args []string) (*daemon, error) {
	os.Remove(addrFile) //nolint:errcheck // stale from the previous incarnation
	pinned := false
	for _, a := range args {
		if a == "-addr" {
			pinned = true
		}
	}
	if !pinned {
		args = append(args, "-addr", "127.0.0.1:0")
	}
	args = append(args, "-addr-file", addrFile)
	d := &daemon{logs: &strings.Builder{}, done: make(chan struct{})}
	d.cmd = exec.Command(h.Bin, args...)
	d.cmd.Stdout = d.logs
	d.cmd.Stderr = d.logs
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.exitErr = d.cmd.Wait(); close(d.done) }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("daemon never became ready; logs:\n%s", d.logs)
		}
		if d.addr == "" {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				d.addr = string(b)
			}
		}
		if d.addr != "" {
			rctx, cancel := context.WithTimeout(ctx, time.Second)
			_, err := server.NewClient(d.addr, nil).Ready(rctx)
			cancel()
			if err == nil {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("daemon exited before ready (%v); logs:\n%s", d.exitErr, d.logs)
		case <-time.After(25 * time.Millisecond):
		}
	}
}

func (d *daemon) kill() {
	if d.cmd.Process != nil {
		d.cmd.Process.Kill() //nolint:errcheck // cleanup
	}
	<-d.done
}

// waitExit blocks until the child is gone (the injected kill fired).
func (d *daemon) waitExit(timeout time.Duration) error {
	select {
	case <-d.done:
		return nil
	case <-time.After(timeout):
		d.kill()
		return fmt.Errorf("crashpoint never fired within %s; logs:\n%s", timeout, d.logs)
	}
}

// Run executes one scenario end to end and returns an error describing the
// first violated guarantee.
func (h *Harness) Run(ctx context.Context, sc Scenario) error {
	dir, err := os.MkdirTemp("", "multilogd-crash-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // temp cleanup

	progSrc := workload.ProgramSource(programCfg)
	progPath := filepath.Join(dir, "prog.mlg")
	if err := os.WriteFile(progPath, []byte(progSrc), 0o644); err != nil {
		return err
	}

	// Phase 1: run the doomed daemon and write until the kill fires.
	d, err := h.start(ctx, dir, sc, progPath, true)
	if err != nil {
		return err
	}
	acked, inFlight, err := h.drive(ctx, d, sc)
	if err != nil {
		d.kill()
		return err
	}
	if err := d.waitExit(30 * time.Second); err != nil {
		return err
	}
	h.logf("%s: crashed after %d acked op(s), in-flight %v", sc.Name, len(acked), inFlight)

	// Phase 2: restart on the same data directory, no crash plan.
	d2, err := h.start(ctx, dir, sc, progPath, false)
	if err != nil {
		return fmt.Errorf("restart after crash: %w", err)
	}
	defer d2.kill()
	if err := h.verify(ctx, d2, sc, progSrc, acked, inFlight); err != nil {
		return fmt.Errorf("%w\nchild logs:\n%s", err, d2.logs)
	}
	return nil
}

// crashFact is the i-th tracked write: a unique key at the bottom level.
func crashFact(i int) string {
	return fmt.Sprintf("l0[p0(crashed%d: a -l0-> w%d)].", i, i)
}

// crashRule is the i-th tracked rule write: it derives a predicate the
// program never mentions from the bottom level's p0 facts, tracked ones
// included, so it is in force exactly when its head has answers.
func crashRule(i int) string {
	return fmt.Sprintf("l0[ruled(K: a -l0-> via%d)] :- l0[p0(K: a -C-> V)] << fir.", i)
}

// referenceReplay boots an in-memory reference server on progSrc, opens a
// writer session, and hands it to replay for re-applying the surviving
// operations.
func (h *Harness) referenceReplay(ctx context.Context, progSrc string, replay func(rc *server.Client, sess string) error) (*httptest.Server, *server.Client, error) {
	ref := server.New(server.Config{})
	if err := ref.Load(dbName, progSrc); err != nil {
		return nil, nil, fmt.Errorf("reference load: %w", err)
	}
	refHS := httptest.NewServer(ref.Handler())
	rc := server.NewClient(refHS.URL, refHS.Client())
	rsess, err := rc.Open(ctx, server.OpenRequest{Subject: "ref", Clearance: "l0", DB: dbName})
	if err != nil {
		refHS.Close()
		return nil, nil, err
	}
	if err := replay(rc, rsess.Session); err != nil {
		refHS.Close()
		return nil, nil, err
	}
	return refHS, rc, nil
}

// compareAnswers proves byte-equal answers between the recovered daemon and
// the reference, across every clearance × belief mode × predicate.
func compareAnswers(ctx context.Context, c, rc *server.Client) error {
	for lvl := 0; lvl < programCfg.Levels; lvl++ {
		for _, mode := range []string{"fir", "opt", "cau"} {
			clearance := string(workload.Level(lvl))
			got, err := openAndAnswer(ctx, c, clearance, mode)
			if err != nil {
				return fmt.Errorf("recovered daemon at %s/%s: %w", clearance, mode, err)
			}
			want, err := openAndAnswer(ctx, rc, clearance, mode)
			if err != nil {
				return fmt.Errorf("reference at %s/%s: %w", clearance, mode, err)
			}
			if got != want {
				return fmt.Errorf("DIVERGENCE at clearance %s mode %s:\nrecovered: %s\nreference: %s",
					clearance, mode, got, want)
			}
		}
	}
	return nil
}

// checkRecoveryStats asserts the recovery counters are populated on
// /v1/stats and that torn-tail scenarios really did truncate.
func (h *Harness) checkRecoveryStats(ctx context.Context, c *server.Client, sc Scenario, verified int) error {
	st, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	if st.Durability == nil {
		return fmt.Errorf("/v1/stats has no durability section")
	}
	rec := st.Durability.Recovery
	if rec.CheckpointsLoaded == 0 && rec.RecordsReplayed == 0 {
		return fmt.Errorf("recovery counters empty after a crash restart: %+v", rec)
	}
	if sc.WantTruncation && rec.RecordsTruncated == 0 {
		return fmt.Errorf("torn-tail scenario recovered without truncating: %+v", rec)
	}
	h.logf("%s: verified %d write(s); recovery %+v", sc.Name, verified, rec)
	return nil
}

// stormOp is one tracked write: assert or retract of the idx-th tracked
// fact, or of the idx-th tracked rule.
type stormOp struct {
	idx     int
	retract bool
	rule    bool
}

func (op stormOp) clause() string {
	if op.rule {
		return crashRule(op.idx)
	}
	return crashFact(op.idx)
}

func (op stormOp) String() string {
	if op.retract {
		return "-" + op.clause()
	}
	return "+" + op.clause()
}

// drive fires tracked sequential writes (each acknowledged before the next is
// sent) while a read storm runs concurrently, until the daemon dies. Every
// write asserts a fresh fact, except that under sc.WriteStorm roughly every
// third retracts a fact acked earlier, so the WAL holds interleaved additions
// and deletions when the kill lands, and under sc.RuleWrites every fourth
// asserts or retracts a rule. The read storm keeps prepared reductions warm,
// so each write also advances materialized incremental state in the doomed
// daemon. drive returns the acked ops and the one in flight when the
// connection broke (nil when the crash happened between requests).
func (h *Harness) drive(ctx context.Context, d *daemon, sc Scenario) (acked []stormOp, inFlight *stormOp, err error) {
	c := server.NewClient(d.addr, nil) // writes: no retry, ever
	sess, err := c.Open(ctx, server.OpenRequest{Subject: "mutator", Clearance: "l0", DB: dbName})
	if err != nil {
		return nil, nil, fmt.Errorf("mutator open: %w", err)
	}

	stormCtx, stopStorm := context.WithCancel(ctx)
	var storm sync.WaitGroup
	storm.Add(1)
	go func() {
		defer storm.Done()
		serverload.Run(stormCtx, server.NewClient(d.addr, nil), serverload.Config{
			Sessions: 4, Queries: 10_000, Program: programCfg, Seed: 99, DB: dbName,
		})
	}()
	defer func() { stopStorm(); storm.Wait() }()

	var live []int // asserted and not yet retracted
	nextKey := 0
	for i := 0; i < maxWrites; i++ {
		var op stormOp
		if sc.RuleWrites && i%4 == 1 {
			// Rule i/8 arrives at op 8k+1 and leaves at op 8k+5.
			op = stormOp{idx: i / 8, rule: true, retract: i%8 == 5}
		} else if sc.WriteStorm && i%3 == 2 && len(live) > 0 {
			v := (i * 7) % len(live)
			op = stormOp{idx: live[v], retract: true}
			live = append(live[:v], live[v+1:]...)
		} else {
			op = stormOp{idx: nextKey}
			nextKey++
			live = append(live, op.idx)
		}
		var aerr error
		if op.retract {
			_, aerr = c.Retract(ctx, sess.Session, op.clause())
		} else {
			_, aerr = c.Assert(ctx, sess.Session, op.clause())
		}
		if aerr != nil {
			// The daemon died under this request: appended-but-unacked.
			return acked, &op, nil
		}
		acked = append(acked, op)
	}
	return acked, nil, fmt.Errorf("daemon survived %d writes; crashpoint never reached", maxWrites)
}

// verify checks the recovered daemon: the net effect of every acked operation
// survived, the in-flight op is all-or-nothing, and the recovered state
// answers byte-equal to a reference full replay of the surviving operation
// sequence.
func (h *Harness) verify(ctx context.Context, d *daemon, sc Scenario, progSrc string, acked []stormOp, inFlight *stormOp) error {
	c := server.NewClient(d.addr, nil).WithRetry(server.DefaultRetryPolicy())
	sess, err := c.Open(ctx, server.OpenRequest{Subject: "verifier", Clearance: "l0", DB: dbName})
	if err != nil {
		return fmt.Errorf("verifier open: %w", err)
	}
	// probe reports whether what op writes — a tracked fact or rule — is in
	// force: the fact answers exactly once, the rule through every p0 key it
	// derives from. The map below keys on the assert of each.
	probe := func(w stormOp) (bool, error) {
		q := fmt.Sprintf("l0[p0(crashed%d: a -l0-> V)]", w.idx)
		if w.rule {
			q = fmt.Sprintf("l0[ruled(K: a -l0-> via%d)]", w.idx)
		}
		resp, err := c.QueryContext(ctx, server.QueryRequest{Session: sess.Session, Query: q})
		if err != nil {
			return false, fmt.Errorf("probing %s: %w", q, err)
		}
		if !w.rule && len(resp.Answers) > 1 {
			return false, fmt.Errorf("crashed%d recovered %d times", w.idx, len(resp.Answers))
		}
		return len(resp.Answers) > 0, nil
	}

	// Net expectation from the acked prefix.
	present := map[stormOp]bool{}
	for _, op := range acked {
		present[stormOp{idx: op.idx, rule: op.rule}] = !op.retract
	}
	expected := append([]stormOp{}, acked...)

	// The in-flight op is all-or-nothing; probe which way it went.
	if inFlight != nil {
		w := stormOp{idx: inFlight.idx, rule: inFlight.rule}
		there, err := probe(w)
		if err != nil {
			return err
		}
		if there != inFlight.retract {
			expected = append(expected, *inFlight)
			present[w] = !inFlight.retract
		}
	}

	// Zero acked-op loss: every tracked write matches its net expectation.
	for w, want := range present {
		there, err := probe(w)
		if err != nil {
			return err
		}
		switch {
		case want && !there:
			return fmt.Errorf("ACKED WRITE LOST: %v absent after recovery", w)
		case !want && there:
			return fmt.Errorf("ACKED RETRACT LOST: %v resurrected after recovery", w)
		}
	}

	// Reference full replay of the surviving operation sequence, in order.
	refHS, rc, err := h.referenceReplay(ctx, progSrc, func(rc *server.Client, rsess string) error {
		for _, op := range expected {
			var rerr error
			if op.retract {
				_, rerr = rc.Retract(ctx, rsess, op.clause())
			} else {
				_, rerr = rc.Assert(ctx, rsess, op.clause())
			}
			if rerr != nil {
				return fmt.Errorf("reference %v: %w", op, rerr)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer refHS.Close()

	if err := compareAnswers(ctx, c, rc); err != nil {
		return err
	}
	return h.checkRecoveryStats(ctx, c, sc, len(expected))
}

// openAndAnswer opens a session at (clearance, mode) and returns the
// JSON-marshaled answers of every verification query, concatenated — the
// byte representation compared across daemons.
func openAndAnswer(ctx context.Context, c *server.Client, clearance, mode string) (string, error) {
	sess, err := c.Open(ctx, server.OpenRequest{Subject: "verify", Clearance: clearance, Mode: mode, DB: dbName})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	queries := []string{"L[ruled(K: a -C-> V)]"} // what crashRule derives
	for p := 0; p < programCfg.Preds; p++ {
		queries = append(queries, fmt.Sprintf("L[p%d(K: a -C-> V)]", p))
	}
	for _, q := range queries {
		resp, err := c.QueryContext(ctx, server.QueryRequest{Session: sess.Session, Query: q})
		if err != nil {
			return "", err
		}
		raw, err := json.Marshal(resp.Answers)
		if err != nil {
			return "", err
		}
		b.Write(raw)
		b.WriteByte('\n')
	}
	return b.String(), nil
}
