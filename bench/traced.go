package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/compile"
	"repro/internal/server"
	"repro/internal/wal"
)

// traced is the outcome of one traced run.
type traced struct {
	steady, setup map[string]spanStats
	// Counts over the steady ops, read from the in-process server's own
	// counters. One client and a fixed op list: they repeat exactly.
	evictions, invalidations int64
	admitted, shed           int64
	walAppends, walSyncs     int64
	walBytesPerWrite         float64
	incrementalRatio         float64
	stepsPerAnswer           float64
	// Plan-cache counters over set-up and steady ops together; compiling
	// happens on a clearance's first query, which is set-up.
	planHits, planMisses int64
	compileMS            float64

	residualRatio, overheadRatio float64
	attempted                    int
	failures
}

// inproc is a server configured like the daemon — WAL in a directory of its
// own at fsync=always, every other setting at the flag defaults — inside
// this process, listening on loopback.
type inproc struct {
	srv     *server.Server
	addr    string
	dataDir string
	store   *wal.Store
	hs      *http.Server
	served  chan error // receives hs.Serve's result once
	log     *os.File
}

// startInproc loads the program into a fresh server under dir. wrap, if not
// nil, goes around the server's handler.
func startInproc(src, dir string, wrap func(http.Handler) http.Handler) (p *inproc, err error) {
	p = &inproc{dataDir: filepath.Join(dir, "data"), served: make(chan error, 1)}
	var recovery *wal.Recovery
	if p.store, recovery, err = wal.Open(wal.Options{Dir: p.dataDir, Sync: wal.SyncAlways}); err != nil {
		return nil, err
	}
	if p.log, err = os.Create(filepath.Join(dir, "server.log")); err != nil {
		p.store.Close() //nolint:errcheck // reporting the earlier error
		return nil, err
	}
	defer func() {
		if err != nil {
			p.log.Close()   //nolint:errcheck // diagnostics only
			p.store.Close() //nolint:errcheck // reporting the earlier error
		}
	}()
	// Zero fields take the same defaults as the daemon's flags.
	p.srv = server.New(server.Config{MaxInflight: daemonMaxInflight, WAL: p.store,
		Logf: log.New(p.log, "multilogd: ", log.LstdFlags).Printf})
	if err := p.srv.Recover(recovery, map[string]string{"bench": src}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.addr = ln.Addr().String()
	h := p.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	p.hs = &http.Server{Handler: h}
	go func() { p.served <- p.hs.Serve(ln) }()
	return p, nil
}

func (p *inproc) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := p.hs.Shutdown(ctx)
	<-p.served
	if cerr := p.store.Close(); err == nil {
		err = cerr
	}
	p.log.Close() //nolint:errcheck // diagnostics only
	return err
}

// steadyOps is the fixed op list of the traced run: the first n ops of the
// workload's two client streams, alternating.
func steadyOps(w *workloadDef, seed int64, n int) []op {
	streams := [nClients]*stream{newStream(w, seed, 0), newStream(w, seed, 1)}
	ops := make([]op, n)
	for i := range ops {
		ops[i] = streams[i%nClients].next()
	}
	return ops
}

// gcEvery is how many ops may pass between two collections.
const gcEvery = 256

// quietGC turns the collector's own schedule off for an in-process pass,
// which then starts from a collected heap, and returns what turns the
// schedule back on; collectBefore then collects between ops:
// before every write, played or replayed, and every gcEvery-th op. A write
// allocates a copy of the database and a reduction per clearance, and
// server, mirror and oracle share one heap. Left to itself the collector
// starts, set off by the garbage of one of them, inside whichever op runs
// next and makes it two to four times slower: with a dozen writes in a
// traced run the layers' sum swung 40 % around the handler's, and the
// spans-off pass, whose smaller heap collects more often, took longer than
// the spans-on one. So the in-process times are the mutator's; what the
// collector costs the daemon is in the end-to-end metrics and in
// multilogd.cpu_ms_per_op.
func quietGC() (restore func()) {
	old := debug.SetGCPercent(-1)
	runtime.GC()
	return func() { debug.SetGCPercent(old) }
}

func collectBefore(n int, o op) {
	if o.kind != opQuery || n%gcEvery == 0 {
		runtime.GC()
	}
}

// runPlain plays set-up and then ops on a fresh server with spans off and no
// mirror, and returns the sum of the ops' round-trip times: what the traced
// pass's round trips are compared with to price the tracing.
func runPlain(ctx context.Context, cfg runConfig, src string, ops []op) (seconds float64, err error) {
	dir := filepath.Join(cfg.dir, "plain")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer quietGC()()
	compile.DefaultCache.InvalidateAll()
	p, err := startInproc(src, dir, nil)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := p.close(); err == nil {
			err = cerr
		}
	}()
	c := newClient(p.addr)
	ss, err := openSessions(ctx, c)
	if err != nil {
		return 0, err
	}
	for i, o := range setupOps(cfg.w, cfg.seed) {
		collectBefore(i, o)
		if _, err := play(ctx, c, &ss, o); err != nil {
			return 0, fmt.Errorf("spans off: set-up: %v: %w", o, err)
		}
	}
	var total time.Duration
	for i, o := range ops {
		collectBefore(i, o)
		t0 := time.Now()
		if _, err := play(ctx, c, &ss, o); err != nil {
			return 0, fmt.Errorf("spans off: %v: %w", o, err)
		}
		total += time.Since(t0)
	}
	return total.Seconds(), nil
}

// runTraced plays set-up and the first nOps ops of the workload's two
// client streams, alternating, through an in-process server and the mirror
// with spans on, then the same set-up and ops through a second, fresh server
// with spans off to price the tracing itself.
func runTraced(ctx context.Context, cfg runConfig, nOps int, traceFile string) (*traced, error) {
	src := programSource(cfg.w.shape, cfg.seed)
	ops := steadyOps(cfg.w, cfg.seed, nOps)
	rec := newRecorder()
	res, err := tracedPass(ctx, cfg, src, ops, rec)
	if err != nil {
		return nil, err
	}
	// The traced server and the mirror are closed by now: the plain pass has
	// the process to itself, as they had.
	plainS, err := runPlain(ctx, cfg, src, ops)
	if err != nil {
		return nil, err
	}
	if err := rec.write(traceFile, cfg.w.name, cfg.seed); err != nil {
		return nil, err
	}
	res.steady, res.setup = aggregate(rec.spans, phaseSteady), aggregate(rec.spans, phaseSetup)

	// Reconciliation. The layer calls replayed directly under mirror.replay
	// against the handler time they stand for, and the client's round trips
	// with spans on against the round trips of the same ops with spans off.
	replays := map[int]bool{}
	var layersNS, handlerNS, roundtripNS float64
	for _, s := range rec.spans {
		if s.Phase != phaseSteady {
			continue
		}
		switch {
		case s.Name == "mirror.replay":
			replays[s.ID] = true
		case s.Name == "server.handler":
			handlerNS += float64(s.End - s.Start)
		case s.Name == "server.client_roundtrip":
			roundtripNS += float64(s.End - s.Start)
		case replays[s.Parent]:
			layersNS += float64(s.End - s.Start)
		}
	}
	res.residualRatio = 1 - layersNS/handlerNS
	res.overheadRatio = 1 - plainS/(roundtripNS/1e9)
	return res, nil
}

// tracedPass is the spans-on half of runTraced: every op goes through a
// server of its own for real and then through the mirror. It returns the
// counts; the spans stay in rec.
func tracedPass(ctx context.Context, cfg runConfig, src string, ops []op, rec *recorder) (res *traced, err error) {
	dir := filepath.Join(cfg.dir, "traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer quietGC()()
	compile.DefaultCache.InvalidateAll()
	p, err := startInproc(src, dir, rec.handlerSpans)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := p.close(); err == nil {
			err = cerr
		}
	}()
	m, err := newMirror(rec, src, filepath.Join(dir, "mirror-data"))
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := m.wal.Close(); err == nil {
			err = cerr
		}
	}()
	srv, dataDir := p.srv, p.dataDir

	res = &traced{}
	fail := res.fail
	c := newClient(p.addr)
	orc := newOracle(src, cfg.w.shape)
	state := dbState{}
	var (
		ss                     sessions
		opID                   int64
		reads                  int
		epoch                  uint64 = 1
		writes, incremental    int
		missSteps, missAnswers int64
	)

	// doOp plays one op for real, then replays it through the mirror, then
	// checks the answer.
	doOp := func(o op) error {
		opID++
		rec.op.Store(opID)
		collectBefore(int(opID), o)
		rt := rec.begin("server.client_roundtrip", 0)
		rec.opRoot.Store(int64(rt))
		r, perr := play(ctx, c, &ss, o)
		rec.end(rt)
		res.attempted++
		if perr != nil {
			return fmt.Errorf("%v: %w", o, perr)
		}
		collectBefore(int(opID), o)
		rp := rec.begin("mirror.replay", 0)
		m.parent = rp
		var mine []map[string]string
		var merr error
		switch o.kind {
		case opQuery:
			mine, merr = m.query(ctx, server.QueryRequest{Session: ss[o.sess], Query: o.text}, o.sess, r.query)
		default:
			merr = m.update(ctx, server.UpdateRequest{Session: ss[o.sess], Clauses: o.text}, o.sess, o.kind == opRetract, r.update)
		}
		rec.end(rp)
		if merr != nil {
			return fmt.Errorf("mirror: %v: %w", o, merr)
		}

		if o.kind != opQuery {
			epoch++
			if r.changed != 1 || r.epoch != epoch {
				fail("%v: changed %d clauses at epoch %d, want 1 at epoch %d", o, r.changed, r.epoch, epoch)
			}
			state.apply(o)
			writes++
			if r.incremental {
				incremental++
			}
			return nil
		}
		reads++
		got := answerRows(r.answers)
		if r.epoch != epoch {
			fail("%v: answered at epoch %d, the last acked write made %d", o, r.epoch, epoch)
		}
		if !r.cached {
			missSteps += r.steps
			missAnswers += int64(len(r.answers))
			if !sameRows(got, answerRows(mine)) {
				fail("%v: %d rows, the mirror has %d", o, len(got), len(mine))
			}
		}
		if reads%oracleEvery == 0 {
			want, ok, err := orc.expected(ctx, state.key(), o.sess, o.text)
			if err != nil {
				return err
			}
			if ok && !sameRows(got, want) {
				fail("%v: %d rows, reference has %d", o, len(got), len(want))
			}
		}
		return nil
	}

	plan0 := compile.DefaultCache.Stats()
	rec.setPhase(phaseSetup)
	for s := range ss {
		opID++
		rec.op.Store(opID)
		id := rec.begin("server.open_session", 0)
		r, err := c.Open(ctx, openRequest(s))
		rec.end(id)
		if err != nil {
			return nil, err
		}
		ss[s] = r.Session
	}
	for i, o := range setupOps(cfg.w, cfg.seed) {
		if i == 4 {
			// Past the first query at each clearance, set-up is warm-up:
			// played through server and mirror alike, but not recorded.
			rec.setPhase("")
		}
		if err := doOp(o); err != nil {
			return nil, err
		}
	}

	before, walBytes0 := srv.Stats(), dirBytes(dataDir)
	reads, missSteps, missAnswers, writes, incremental = 0, 0, 0, 0, 0
	rec.setPhase(phaseSteady)
	for _, o := range ops {
		if err := doOp(o); err != nil {
			return nil, err
		}
	}
	rec.setPhase("")
	after, walBytes1 := srv.Stats(), dirBytes(dataDir)
	plan1 := compile.DefaultCache.Stats()

	if after.Durability == nil || after.Admission == nil {
		return nil, errors.New("the in-process server reports no durability or admission stats")
	}
	res.evictions = after.Cache.Evictions - before.Cache.Evictions
	res.invalidations = after.Cache.Invalidations - before.Cache.Invalidations
	res.admitted = after.Admission.Admitted - before.Admission.Admitted
	res.shed = after.Admission.Shed - before.Admission.Shed
	res.walAppends = after.Durability.Appended - before.Durability.Appended
	res.walSyncs = after.Durability.Syncs - before.Durability.Syncs
	if res.walAppends > 0 {
		res.walBytesPerWrite = float64(walBytes1-walBytes0) / float64(res.walAppends)
	}
	if writes > 0 {
		res.incrementalRatio = float64(incremental) / float64(writes)
	}
	if missAnswers > 0 {
		res.stepsPerAnswer = float64(missSteps) / float64(missAnswers)
	}
	res.planHits, res.planMisses = plan1.Hits-plan0.Hits, plan1.Misses-plan0.Misses
	res.compileMS = float64(plan1.CompileNS-plan0.CompileNS) / 1e6
	return res, nil
}

// dirBytes sums the sizes of the files in a WAL directory.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}
