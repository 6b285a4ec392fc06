package main

// The benchmark's inputs. Everything the daemon sees — the program file,
// the sessions, every query and clause — is generated here from -seed and
// nowhere else: internal/workload may change under later PRs, the load
// this benchmark applies may not. TestFrozenInputs pins the sha256 of the
// program text and of each workload's first ops, so changing anything in
// this file is a visible edit of the benchmark.

import (
	"fmt"
	"math/rand"
	"strings"
)

// shape is the size of a generated program: a chain lattice l0<…, preds
// m-predicates p0…, facts m-facts over facts/preds keys and values distinct
// values, a polyinstantiated sibling for the share poly of the facts below
// the top level, and rules belief rules deriving q0….
type shape struct {
	levels, preds, facts, values, rules int
	poly                                float64
}

var (
	shapeLarge = shape{levels: 4, preds: 6, facts: 2000, values: 500, rules: 16, poly: 0.3}
	// shapeSmall is for rule_churn: a rule write re-derives every warm
	// clearance from scratch (~1 s at 2000 facts, ~0.13 s at 200), so the
	// large shape would leave too few operations in a 10 s window to report
	// percentiles.
	shapeSmall = shape{levels: 4, preds: 6, facts: 200, values: 500, rules: 16, poly: 0.3}
)

var modes = [3]string{"fir", "opt", "cau"}

func (sh shape) keys() int { return (sh.facts + sh.preds - 1) / sh.preds }

// programSource renders the seeded MultiLog program: admissible and
// level-stratified (a rule's head sits strictly above its body's belief
// level), so every clearance's reduction stratifies. Predicates, keys,
// levels, polyinstantiation and the rules' shapes go round-robin, so that
// every seed gives the same cells at the same levels and the same derived
// relations — the work per op, and above all per write, does not depend on
// the seed — and the seed decides the values: what a value-bound query
// finds, and which value opt and cau settle on.
func programSource(sh shape, seed int64) string {
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < sh.levels; i++ {
		fmt.Fprintf(&b, "level(l%d).\n", i)
	}
	for i := 0; i+1 < sh.levels; i++ {
		fmt.Fprintf(&b, "order(l%d, l%d).\n", i, i+1)
	}
	for i := 0; i < sh.facts; i++ {
		pred, key, lvl := i%sh.preds, i/sh.preds, i/sh.preds%sh.levels
		val := r.Intn(sh.values)
		fmt.Fprintf(&b, "l%d[p%d(k%d: a -l%d-> v%d)].\n", lvl, pred, key, lvl, val)
		if block := i / (sh.preds * sh.levels); float64(block%10) < 10*sh.poly && lvl+1 < sh.levels {
			// A higher-level sibling polyinstantiates the same cell (the
			// paper's Figure 1 cover story).
			hi := lvl + 1 + block/10%(sh.levels-lvl-1)
			fmt.Fprintf(&b, "l%d[p%d(k%d: a -l%d-> v%d)].\n", hi, pred, key, hi, r.Intn(sh.values))
		}
	}
	// Every pair lo < hi of the four levels, in turn.
	pairs := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	for i := 0; i < sh.rules; i++ {
		lo, hi := pairs[i%len(pairs)][0], pairs[i%len(pairs)][1]
		fmt.Fprintf(&b, "l%d[q%d(K: d -l%d-> derived%d)] :- l%d[p%d(K: a -C-> V)] << %s.\n",
			hi, i, hi, i, lo, i%sh.preds, modes[i%3])
	}
	return b.String()
}

// Sessions: every run opens the same twelve, one per clearance × belief
// mode, and each client multiplexes all of them — two closed-loop clients
// still ask at every view the paper distinguishes.
const nSessions = 12

func sessionLevel(s int) int   { return s % 4 }
func sessionMode(s int) string { return modes[s/4] }

type opKind int

const (
	opQuery opKind = iota
	opAssert
	opRetract
)

func (k opKind) String() string { return [...]string{"query", "assert", "retract"}[k] }

// op is one request: a query or a clause write, on session sess.
type op struct {
	kind opKind
	sess int
	text string
}

func (o op) String() string { return fmt.Sprintf("%s s%d %s", o.kind, o.sess, o.text) }

func pointQuery(pred, key int) string { return fmt.Sprintf("L[p%d(k%d: a -C-> V)]", pred, key) }
func valueQuery(pred, val int) string { return fmt.Sprintf("L[p%d(K: a -C-> v%d)]", pred, val) }
func scanQuery(pred int) string       { return fmt.Sprintf("L[p%d(K: a -C-> V)]", pred) }

// joinQuery puts the unbound derived goal first: the matcher goes left to
// right, so it walks every derived q fact and probes the base predicate for
// each — a match that does real work, from a space of 6×500×16 queries.
func joinQuery(pred, val, rule int) string {
	return fmt.Sprintf("M[q%d(K: d -D-> W)], L[p%d(K: a -C-> v%d)]", rule, pred, val)
}

// hotSetSize × nSessions = 768 result-cache entries, under a fifth of the
// daemon's 4096.
const hotSetSize = 64

// hotSet is the fixed query set of the cache-resident workloads: the full
// scan of every predicate, then key-bound points and value-bound scans.
func hotSet(sh shape, seed int64) []string {
	r := rand.New(rand.NewSource(seed<<8 | 1))
	qs := make([]string, 0, hotSetSize)
	for p := 0; p < sh.preds; p++ {
		qs = append(qs, scanQuery(p))
	}
	seen := map[string]bool{}
	for len(qs) < hotSetSize {
		q := pointQuery(r.Intn(sh.preds), r.Intn(sh.keys()))
		if len(qs)%2 == 1 {
			q = valueQuery(r.Intn(sh.preds), r.Intn(sh.values))
		}
		if !seen[q] {
			seen[q] = true
			qs = append(qs, q)
		}
	}
	return qs
}

// workloadDef is one traffic mix. why is the reason the workload exists;
// it is printed, and repeated in BENCHMARK.json and the README.
type workloadDef struct {
	name  string
	shape shape
	why   string
	// warmup is how many ops of the (separately seeded) warm-up stream
	// follow the hot pass during set-up; on the write workloads the stream
	// is played until it has made warmupWrites writes.
	warmup, warmupWrites int
	// tracedOps is the fixed length of the traced run, in ops.
	tracedOps int
	// readsQueue says that reads wait behind writes for the daemon's one
	// core: their latency is then a count of the Go scheduler's 10 ms time
	// slices, which does not move with the machine's speed, and is reported
	// as the clocks read instead of restated at the reference speed.
	readsQueue bool
	next       func(g *stream) op
}

var workloads = []workloadDef{
	{name: "read_hot", shape: shapeLarge, warmup: 0, tracedOps: 2000, next: (*stream).nextHot,
		why: "64 fixed queries x 12 views = 768 entries in a 4096-entry cache, hit ratio at least 0.99: the cost every read pays (HTTP/JSON, session, parse, rewrite, probe) with match and the write path idle"},
	{name: "read_miss", shape: shapeLarge, warmup: 4500, tracedOps: 2000, next: (*stream).nextMiss,
		why: "ad-hoc queries from a space over 100x the cache, hit ratio at most 0.10: match, render, QueryDeps, cache insert + LRU eviction and admission do the work; read_hot's layers are a small share"},
	{name: "write_mix", shape: shapeLarge, warmupWrites: 2, tracedOps: 100, readsQueue: true, next: (*stream).nextMix,
		why: "90% hot-set reads, 10% client-private fact writes: the whole write path (clone, re-lint, reduce + advance per clearance, WAL fsync, per-predicate invalidation) beside the reads it delays"},
	{name: "rule_churn", shape: shapeSmall, warmupWrites: 2, tracedOps: 180, readsQueue: true, next: (*stream).nextChurn,
		why: "a rule write then 8 hot reads per cycle, 200-fact shape: a rule write invalidates everything and re-derives every warm clearance in the interpreter, the prepare layers idle on the other three"},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// stream is one client's endless, seeded op sequence for a workload.
// Client numbers 0 and 1 are the measured clients; warmupClient seeds the
// warm-up stream, so the measured streams start at op 0 on every run.
type stream struct {
	w      *workloadDef
	client int
	r      *rand.Rand
	hot    []string
	n      int // ops generated so far
	writes int // writes among them
	// write_mix: which op of the current ten is the write.
	writeAt int
	reads   int // rule_churn: reads left in the current cycle
}

const warmupClient = 2

func newStream(w *workloadDef, seed int64, client int) *stream {
	tag := int64(16)
	for i := range workloads {
		if workloads[i].name == w.name {
			tag += int64(i) * 4
		}
	}
	return &stream{w: w, client: client, r: rand.New(rand.NewSource(seed<<8 | (tag + int64(client)))),
		hot: hotSet(w.shape, seed)}
}

func (g *stream) next() op {
	o := g.w.next(g)
	g.n++
	return o
}

func (g *stream) hotRead() op {
	return op{kind: opQuery, sess: g.r.Intn(nSessions), text: g.hot[g.r.Intn(len(g.hot))]}
}

func (g *stream) nextHot() op { return g.hotRead() }

// nextMiss draws from 6×500 value scans, 6×500×16 joins of a derived
// predicate with a value-bound base one, and 6×334 points, each at 12
// views: over 600k distinct cache keys against 4096 entries.
func (g *stream) nextMiss() op {
	sh, sess := g.w.shape, g.r.Intn(nSessions)
	var q string
	switch u := g.r.Float64(); {
	case u < 0.6:
		q = valueQuery(g.r.Intn(sh.preds), g.r.Intn(sh.values))
	case u < 0.8:
		q = joinQuery(g.r.Intn(sh.preds), g.r.Intn(sh.values), g.r.Intn(sh.rules))
	default:
		q = pointQuery(g.r.Intn(sh.preds), g.r.Intn(sh.keys()))
	}
	return op{kind: opQuery, sess: sess, text: q}
}

// nextMix makes one op of every ten a write, at a position drawn afresh
// for each ten. With a write exactly every tenth op the two clients' cycles
// lock into phase — both writing at once, or one always reading into the
// other's write — and which phase a run falls into moved ops_per_s by half;
// with every op a write with probability 0.1 the ≈400 ops of a window hold
// 40 ± 6 writes, which cost a hundred reads each, and the seed alone spread
// ops_per_s by a fifth. The client alternately asserts and retracts a fact
// only it ever names, at the level of the session it writes through,
// round-robin over the predicates and the sessions.
func (g *stream) nextMix() op {
	if g.n%10 == 0 {
		g.writeAt = g.r.Intn(10)
	}
	if g.n%10 != g.writeAt {
		return g.hotRead()
	}
	pair := g.writes / 2
	sess := (pair + 5*g.client) % nSessions
	lvl := sessionLevel(sess)
	o := op{kind: opAssert, sess: sess, text: fmt.Sprintf("l%d[p%d(w%d_%d: a -l%d-> wv%d)].",
		lvl, pair%g.w.shape.preds, g.client, pair, lvl, g.client)}
	if g.writes%2 == 1 {
		o.kind = opRetract
	}
	g.writes++
	return o
}

// nextChurn cycles: the client asserts (next cycle: retracts) a Π rule of
// its own through a top-clearance session, then reads hot queries at
// rotating views — 4 to 12 of them, 8 on average, drawn per cycle for the
// reason nextMix draws its writes.
func (g *stream) nextChurn() op {
	if g.reads > 0 {
		g.reads--
		o := g.hotRead()
		o.sess = (g.n + 5*g.client) % nSessions
		return o
	}
	cycle := g.writes
	o := op{kind: opAssert, sess: 3 + 4*(cycle/2%3), text: fmt.Sprintf("churn%d(X) :- level(X).", g.client)}
	if cycle%2 == 1 {
		o.kind = opRetract
	}
	g.writes++
	g.reads = 4 + g.r.Intn(9)
	return o
}

// setupOps is the fixed warm-up a set-up plays, in order, after opening
// the sessions: the first query at each clearance (which pays Reduce +
// compile + fixpoint + externalize), one pass over the hot set at every
// view for the cache-resident workloads, then the warm-up stream — 4500
// ops to fill the result cache on read_miss, an assert and a retract on the
// write workloads, to get the first write's interpreter fallback out of the
// window.
func setupOps(w *workloadDef, seed int64) []op {
	var ops []op
	for lvl := 0; lvl < 4; lvl++ {
		ops = append(ops, op{kind: opQuery, sess: lvl, text: scanQuery(0)})
	}
	if w.name != "read_miss" {
		for _, q := range hotSet(w.shape, seed) {
			for s := 0; s < nSessions; s++ {
				ops = append(ops, op{kind: opQuery, sess: s, text: q})
			}
		}
	}
	g := newStream(w, seed, warmupClient)
	for g.n < w.warmup || g.writes < w.warmupWrites {
		ops = append(ops, g.next())
	}
	return ops
}
