package main

// The untraced run: a real multilogd child, driven over loopback by two
// closed-loop clients from this one process. Sessions are callers that
// wait for their reply, so a client sends its next request only when the
// previous one has been answered.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
)

const (
	nClients = 2
	// oracleEvery is the sampling stride of the answer check: every 16th
	// read of each client.
	oracleEvery = 16
)

// runConfig is one benchmark run. setups is fixed by main; only the smoke
// test shrinks it.
type runConfig struct {
	built
	w       *workloadDef
	seed    int64
	seconds float64
	setups  int    // how many times set-up is played; setup_s is their median
	dir     string // scratch directory of this run, removed afterwards
}

// sessions holds the twelve session tokens, indexed as in gen.go.
type sessions [nSessions]string

// openRequest is the session-open request of session s.
func openRequest(s int) server.OpenRequest {
	return server.OpenRequest{Subject: fmt.Sprintf("bench%d", s),
		Clearance: fmt.Sprintf("l%d", sessionLevel(s)), Mode: sessionMode(s)}
}

func openSessions(ctx context.Context, c *server.Client) (sessions, error) {
	var ss sessions
	for s := range ss {
		r, err := c.Open(ctx, openRequest(s))
		if err != nil {
			return ss, fmt.Errorf("opening session %d: %w", s, err)
		}
		ss[s] = r.Session
	}
	return ss, nil
}

// reply is what a client saw for one op.
type reply struct {
	answers     []map[string]string // query
	cached      bool                // query
	steps       int64               // query
	epoch       uint64
	changed     int  // write
	incremental bool // write
	// The decoded responses themselves; the mirror re-encodes them.
	query  *server.QueryResponse
	update *server.UpdateResponse
}

func play(ctx context.Context, c *server.Client, ss *sessions, o op) (reply, error) {
	switch o.kind {
	case opQuery:
		r, err := c.QueryContext(ctx, server.QueryRequest{Session: ss[o.sess], Query: o.text})
		if err != nil {
			return reply{}, err
		}
		return reply{answers: r.Answers, cached: r.Cached, steps: r.Stats.Steps, epoch: r.Epoch, query: r}, nil
	case opAssert, opRetract:
		write := c.Assert
		if o.kind == opRetract {
			write = c.Retract
		}
		r, err := write(ctx, ss[o.sess], o.text)
		if err != nil {
			return reply{}, err
		}
		return reply{epoch: r.Epoch, changed: r.Changed, incremental: r.Incremental, update: r}, nil
	}
	return reply{}, fmt.Errorf("unknown op kind %d", o.kind)
}

// ackedWrite is a write the daemon acknowledged, with the epoch it made.
type ackedWrite struct {
	epoch uint64
	op    op
}

// sampledRead is a read kept for the oracle.
type sampledRead struct {
	op    op
	epoch uint64
	rows  []string
}

// clientLog is what one closed-loop client recorded over the window.
type clientLog struct {
	readMS, writeMS []float64
	hits            int
	errs            []error
	ryw             int // reads older than this client's last acked write
	samples         []sampledRead
	writes          []ackedWrite
	elapsed         time.Duration // of the daemon's ops alone: the reference requests are taken out
	ref             *probe
	refErr          error
}

// runClient plays the client's stream, one op at a time and a reference
// request in between whenever one is due, until the ops have had the window.
func runClient(ctx context.Context, c *server.Client, ss *sessions, g *stream, ref *probe, window time.Duration) *clientLog {
	log := &clientLog{ref: ref}
	var lastWrite uint64
	start := time.Now()
	for time.Since(start)-ref.spent < window && ctx.Err() == nil {
		if log.refErr = ref.tick(ctx); log.refErr != nil {
			break
		}
		o := g.next()
		t0 := time.Now()
		r, err := play(ctx, c, ss, o)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if o.kind == opQuery {
			log.readMS = append(log.readMS, ms)
		} else {
			log.writeMS = append(log.writeMS, ms)
		}
		if err != nil {
			log.errs = append(log.errs, fmt.Errorf("%v: %w", o, err))
			continue
		}
		if o.kind != opQuery {
			if r.changed != 1 {
				log.errs = append(log.errs, fmt.Errorf("%v: changed %d clauses, want 1", o, r.changed))
				continue
			}
			log.writes = append(log.writes, ackedWrite{r.epoch, o})
			lastWrite = r.epoch
			continue
		}
		if r.cached {
			log.hits++
		}
		if r.epoch < lastWrite {
			log.ryw++
		}
		if len(log.readMS)%oracleEvery == 0 {
			log.samples = append(log.samples, sampledRead{o, r.epoch, answerRows(r.answers)})
		}
	}
	log.elapsed = time.Since(start) - ref.spent
	return log
}

// failures counts failed operations and keeps the first few for the report.
type failures struct {
	failed        int
	firstFailures []string
}

func (f *failures) fail(format string, args ...any) {
	f.failed++
	if len(f.firstFailures) < 5 {
		f.firstFailures = append(f.firstFailures, fmt.Sprintf(format, args...))
	}
}

// timings are the end-to-end timings of one untraced run.
type timings struct {
	setupS, opsPerS  float64
	readP50, readP95 float64
}

// untraced is the outcome of one untraced run.
type untraced struct {
	failures
	timings         // restated at the reference speed
	clock   timings // as the clocks read
	// Write latency is per layer, and as the clocks read.
	writeP50, writeP90 float64
	// The reference requests of the window.
	refRoundtripP50MS, refServiceP50US float64
	refSamples                         int

	nRead, nWrite                int
	attempted                    int
	hitRatio                     float64
	cpuMSPerOp, peakRSSMB        float64
	checkpoints                  int64
	oracleSampled, oracleChecked int
}

// runUntraced plays cfg.setups set-ups, each on a fresh daemon, keeps the
// last daemon for the measured window, verifies what the clients saw, and
// stops the daemon. The reference server runs beside all of it.
func runUntraced(ctx context.Context, cfg runConfig) (res *untraced, err error) {
	src := programSource(cfg.w.shape, cfg.seed)
	progFile := filepath.Join(cfg.dir, "bench.mlg")
	if err := os.WriteFile(progFile, []byte(src), 0o644); err != nil {
		return nil, err
	}
	warm := setupOps(cfg.w, cfg.seed)

	ref, err := startReference(ctx, cfg.refBin, cfg.daemonCPUs, filepath.Join(cfg.dir, "reference"))
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := ref.stop(); serr != nil && err == nil {
			err = fmt.Errorf("the reference server did not stop cleanly: %w", serr)
		}
	}()

	var (
		d         *child
		c         *server.Client
		ss        sessions
		setups    []float64 // restated at the reference speed
		setupsRaw []float64
		// history is every acked write since the daemon booted, set-up's
		// included: the database state at an epoch is their replay.
		history []ackedWrite
	)
	stop := func() {
		if d == nil {
			return
		}
		if serr := d.stop(); serr != nil && err == nil {
			err = fmt.Errorf("multilogd did not drain cleanly: %w", serr)
		}
		d = nil
	}
	defer stop()
	for i := 0; i < cfg.setups; i++ {
		stop()
		history = history[:0]
		pr := newProbe(ref, cfg.seed, nClients+i)
		t0 := time.Now()
		if d, err = startDaemon(ctx, cfg.bin, cfg.daemonCPUs, filepath.Join(cfg.dir, fmt.Sprintf("daemon%d", i)), progFile); err != nil {
			return nil, err
		}
		c = newClient(d.addr)
		if ss, err = openSessions(ctx, c); err != nil {
			return nil, err
		}
		for _, o := range warm {
			if err := pr.tick(ctx); err != nil {
				return nil, err
			}
			r, err := play(ctx, c, &ss, o)
			if err != nil {
				return nil, fmt.Errorf("set-up: %v: %w", o, err)
			}
			if o.kind != opQuery {
				history = append(history, ackedWrite{r.epoch, o})
			}
		}
		raw := (time.Since(t0) - pr.spent).Seconds()
		sp, err := speedOf(pr.roundtripMS)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupsRaw, setups = append(setupsRaw, raw), append(setups, raw*sp)
	}

	before, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	logs := make([]*clientLog, nClients)
	var wg sync.WaitGroup
	for i := range logs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			logs[i] = runClient(ctx, newClient(d.addr), &ss, newStream(cfg.w, cfg.seed, i),
				newProbe(ref, cfg.seed, i), time.Duration(cfg.seconds*float64(time.Second)))
		}(i)
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	after, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}

	res = &untraced{}
	var reads, writes, refRoundtrips, refServices []float64
	hits := 0
	for i, l := range logs {
		if l.refErr != nil {
			return nil, l.refErr
		}
		ops := len(l.readMS) + len(l.writeMS)
		res.attempted += ops
		res.clock.opsPerS += float64(ops-len(l.errs)) / l.elapsed.Seconds()
		reads, writes = append(reads, l.readMS...), append(writes, l.writeMS...)
		refRoundtrips, refServices = append(refRoundtrips, l.ref.roundtripMS...), append(refServices, l.ref.serviceUS...)
		hits += l.hits
		for _, e := range l.errs {
			res.fail("client %d: %v", i, e)
		}
		for j := 0; j < l.ryw; j++ {
			res.fail("client %d: a read was older than the client's last acked write", i)
		}
		history = append(history, l.writes...)
	}
	sort.Float64s(reads)
	sort.Float64s(writes)
	res.nRead, res.nWrite = len(reads), len(writes)
	res.clock.setupS = median(setupsRaw)
	res.clock.readP50, res.clock.readP95 = percentile(reads, 0.50), percentile(reads, 0.95)
	res.writeP50, res.writeP90 = percentile(writes, 0.50), percentile(writes, 0.90)
	sp, err := speedOf(refRoundtrips)
	if err != nil {
		return nil, fmt.Errorf("window: %w", err)
	}
	readSp := sp
	if cfg.w.readsQueue {
		readSp = 1
	}
	res.timings = timings{setupS: median(setups), opsPerS: res.clock.opsPerS / sp,
		readP50: res.clock.readP50 * readSp, readP95: res.clock.readP95 * readSp}
	res.refRoundtripP50MS, res.refServiceP50US, res.refSamples = median(refRoundtrips), median(refServices), len(refRoundtrips)
	if len(reads) > 0 {
		res.hitRatio = float64(hits) / float64(len(reads))
	}
	res.cpuMSPerOp = (cpu1 - cpu0) * 1000 / float64(res.attempted)
	if res.peakRSSMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	if after.Durability == nil || before.Durability == nil {
		return nil, errors.New("the daemon reports no durability stats; is -data-dir set?")
	}
	res.checkpoints = after.Durability.CheckpointsWritten - before.Durability.CheckpointsWritten

	if err := verify(ctx, cfg, src, c, &ss, history, logs, res); err != nil {
		return nil, err
	}
	return res, nil
}

// verify checks the window after the fact: the acked writes must account
// for every epoch, each sampled read must equal the interpreted reference
// at the state of its epoch, and on the write workloads the quiescent
// daemon must answer every full scan at every view as the reference does.
func verify(ctx context.Context, cfg runConfig, src string, c *server.Client, ss *sessions,
	history []ackedWrite, logs []*clientLog, res *untraced) error {
	fail := res.fail
	sort.Slice(history, func(i, j int) bool { return history[i].epoch < history[j].epoch })
	// The program loads at epoch 1 and every effective write adds one.
	stateAt := map[uint64]string{1: ""}
	st := dbState{}
	for i, w := range history {
		if w.epoch != uint64(i+2) {
			fail("acked writes do not account for epoch %d (next acked epoch is %d)", i+2, w.epoch)
			return nil
		}
		st.apply(w.op)
		stateAt[w.epoch] = st.key()
	}
	final := st.key()
	orc := newOracle(src, cfg.w.shape)

	if len(history) > 0 {
		for s := 0; s < nSessions; s++ {
			for p := 0; p < cfg.w.shape.preds; p++ {
				o := op{kind: opQuery, sess: s, text: scanQuery(p)}
				r, err := play(ctx, c, ss, o)
				res.attempted++
				if err != nil {
					fail("quiescence: %v: %v", o, err)
					continue
				}
				want, _, err := orc.expected(ctx, final, s, o.text)
				if err != nil {
					return err
				}
				if got := answerRows(r.answers); !sameRows(got, want) {
					fail("quiescence: %v: %d rows, reference has %d", o, len(got), len(want))
				}
			}
		}
	}

	// Verify the most-sampled (state, level) pairs first, so a bounded
	// model budget covers as many samples as it can.
	type group struct {
		state string
		lvl   int
	}
	byGroup := map[group][]sampledRead{}
	for _, l := range logs {
		for _, s := range l.samples {
			res.oracleSampled++
			state, ok := stateAt[s.epoch]
			if !ok {
				fail("%v: answered at epoch %d, which no acked write made", s.op, s.epoch)
				continue
			}
			g := group{state, sessionLevel(s.op.sess)}
			byGroup[g] = append(byGroup[g], s)
		}
	}
	groups := make([]group, 0, len(byGroup))
	for g := range byGroup {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		a, b := groups[i], groups[j]
		if len(byGroup[a]) != len(byGroup[b]) {
			return len(byGroup[a]) > len(byGroup[b])
		}
		if a.state != b.state {
			return a.state < b.state
		}
		return a.lvl < b.lvl
	})
	for _, g := range groups {
		for _, s := range byGroup[g] {
			want, ok, err := orc.expected(ctx, g.state, s.op.sess, s.op.text)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			res.oracleChecked++
			if !sameRows(s.rows, want) {
				fail("%v at epoch %d: %d rows, reference has %d", s.op, s.epoch, len(s.rows), len(want))
			}
		}
	}
	return nil
}

// percentile is the nearest-rank percentile of a sorted sample; 0 when the
// sample is empty.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
