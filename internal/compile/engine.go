package compile

import (
	"context"
	"fmt"

	"repro/internal/datalog"
	"repro/internal/resource"
	"repro/internal/term"
)

// Options configures one compiled run.
type Options struct {
	// Limits bounds the run (facts, steps, memory — interner and index
	// memory included). The zero value is unlimited.
	Limits resource.Limits
}

// Stats reports one compiled run.
type Stats struct {
	Rounds     int  // semi-naive rounds across all strata
	Facts      int  // distinct facts in the (possibly partial) model
	Symbols    int  // interned ground terms
	PlanCached bool // plan came from the cache rather than a fresh compile
	Resource   resource.Stats
}

// Eval compiles (or cache-hits) and runs a program, mirroring
// datalog.Eval: the returned store is the full minimal model.
func Eval(p *datalog.Program, edb *datalog.Store) (*datalog.Store, error) {
	model, _, err := EvalContext(context.Background(), p, edb, Options{})
	return model, err
}

// EvalContext runs a program through the default plan cache under ctx and
// opts. Like the interpreter, a resource-limit error still returns the
// partial model built so far.
func EvalContext(ctx context.Context, p *datalog.Program, edb *datalog.Store, opts Options) (*datalog.Store, *Stats, error) {
	plan, hit, err := DefaultCache.Plan(p)
	if err != nil {
		return nil, nil, err
	}
	model, stats, err := plan.Run(ctx, p, edb, opts)
	if stats != nil {
		stats.PlanCached = hit
	}
	return model, stats, err
}

// job is one unit of round work: a rule, with at most one scan op reading
// the previous round's delta (deltaAt < 0 on the initial full round).
type job struct {
	rp      *rulePlan
	deltaAt int
}

// emitBuf collects one job's derived rows: flattened head tuples plus a
// job-local dedup set. Buffers are private to their job during a round and
// merged after it in job order: the round's jobs all read the same relations.
type emitBuf struct {
	n    int
	rows []ID
	seen map[string]bool
}

// runtime is the mutable state of one run: the interner, one Relation per
// predicate, and the governor. A runtime is used once and discarded.
type runtime struct {
	plan    *Plan
	gov     *resource.Governor
	in      *Interner
	rels    map[predKey]*Relation
	bound   []*Relation // by plan predicate index
	order   []predKey   // creation order, for deterministic externalization
	pools   map[*rulePlan][]ID
	scratch []byte
	stats   *Stats
}

// Run evaluates the plan over the program's facts plus edb. The plan holds
// no fact state, so one plan serves concurrent Runs. On a resource-limit
// error the partial model is returned alongside the error, mirroring the
// interpreter contract.
func (pl *Plan) Run(ctx context.Context, p *datalog.Program, edb *datalog.Store, opts Options) (*datalog.Store, *Stats, error) {
	gov := resource.New(ctx, opts.Limits)
	rt := &runtime{
		plan:  pl,
		gov:   gov,
		in:    NewInterner(gov),
		rels:  make(map[predKey]*Relation, len(pl.preds)),
		bound: make([]*Relation, len(pl.preds)),
		pools: make(map[*rulePlan][]ID),
		stats: &Stats{},
	}
	for i, pk := range pl.preds {
		rt.bound[i] = rt.rel(pk)
	}
	err := rt.run(p, edb)
	rt.stats.Symbols = rt.in.Len()
	rt.stats.Resource = gov.Snapshot()
	if err != nil && !resource.IsLimit(err) {
		return nil, rt.stats, err
	}
	model := rt.externalize()
	rt.stats.Facts = model.Len()
	if err != nil {
		rt.stats.Resource.Truncated = true
	}
	return model, rt.stats, err
}

// rel returns (creating if needed) the relation for a predicate/arity.
func (rt *runtime) rel(pk predKey) *Relation {
	if r, ok := rt.rels[pk]; ok {
		return r
	}
	r := newRelation(pk.arity)
	rt.rels[pk] = r
	rt.order = append(rt.order, pk)
	return r
}

// seedBytes mirrors the interpreter's structural fact-size estimate
// (datalog.approxAtomBytes) from interned IDs.
func (rt *runtime) seedBytes(pred string, row []ID) int64 {
	b := int64(len(pred)) + 48
	for _, id := range row {
		b += rt.in.keyLen(id) + 16
	}
	return b
}

// seed interns one ground atom and inserts it, charging the governor for
// newly-stored facts (EDB facts count toward MaxFacts, as in the
// interpreter).
func (rt *runtime) seed(a datalog.Atom) error {
	pk := predKey{a.Pred, a.Arity()}
	rel := rt.rel(pk)
	row := make([]ID, len(a.Args))
	for i, t := range a.Args {
		id, err := rt.in.Intern(t)
		if err != nil {
			return err
		}
		row[i] = id
	}
	added, scratch, err := rel.Insert(row, rt.scratch, rt.gov)
	rt.scratch = scratch
	if err != nil {
		return err
	}
	if added {
		return rt.gov.Insert(rt.seedBytes(a.Pred, row))
	}
	return nil
}

// run seeds all facts, then evaluates each stratum to fixpoint.
func (rt *runtime) run(p *datalog.Program, edb *datalog.Store) error {
	for _, c := range p.Clauses {
		if !c.IsFact() {
			continue
		}
		if !c.Head.IsGround() {
			return fmt.Errorf("datalog: non-ground fact %s", c.Head)
		}
		if err := rt.seed(c.Head); err != nil {
			return err
		}
	}
	if edb != nil {
		for _, pred := range edb.Preds() {
			for _, f := range edb.Facts(pred) {
				if err := rt.seed(f); err != nil {
					return err
				}
			}
		}
	}
	for i := range rt.plan.strata {
		if err := rt.runStratum(&rt.plan.strata[i]); err != nil {
			return err
		}
		if err := rt.gov.StratumDone(); err != nil {
			return err
		}
	}
	return nil
}

// runStratum drives the semi-naive rounds of one stratum: round zero runs
// every rule against the full store; later rounds run one job per (rule,
// delta-readable scan op) whose delta relation is non-empty.
func (rt *runtime) runStratum(sp *stratumPlan) error {
	for _, rp := range sp.rules {
		if err := rt.internPool(rp); err != nil {
			return err
		}
	}
	jobs := make([]job, 0, len(sp.rules))
	for _, rp := range sp.rules {
		jobs = append(jobs, job{rp: rp, deltaAt: -1})
	}
	var deltas map[int]rowRange
	for {
		rt.stats.Rounds++
		if err := rt.gov.Check(); err != nil {
			return err
		}
		if err := rt.ensureIndexes(jobs); err != nil {
			return err
		}
		bufs, err := rt.runJobs(jobs, deltas)
		if err != nil {
			return err
		}
		next, changed, err := rt.merge(jobs, bufs)
		if err != nil {
			return err
		}
		if !changed {
			return nil
		}
		deltas = next
		jobs = jobs[:0]
		for _, rp := range sp.rules {
			for _, v := range rp.variants {
				if d, ok := deltas[rp.ops[v].pred]; ok && d.to > d.from {
					jobs = append(jobs, job{rp: rp, deltaAt: v})
				}
			}
		}
		if len(jobs) == 0 {
			return nil
		}
	}
}

// internPool interns a rule's ground constants once per run.
func (rt *runtime) internPool(rp *rulePlan) error {
	if _, ok := rt.pools[rp]; ok {
		return nil
	}
	ids := make([]ID, len(rp.pool))
	for i, t := range rp.pool {
		id, err := rt.in.Intern(t)
		if err != nil {
			return err
		}
		ids[i] = id
	}
	rt.pools[rp] = ids
	return nil
}

// ensureIndexes builds or extends every hash index the round's jobs will
// probe, so that the job phase only reads. Delta scans probe the base
// relation's index through a row-range view, so one index per (predicate,
// mask) serves both full and delta reads.
func (rt *runtime) ensureIndexes(jobs []job) error {
	for _, jb := range jobs {
		for i := range jb.rp.ops {
			o := &jb.rp.ops[i]
			if o.kind != opScan || o.mask == 0 {
				continue
			}
			if err := rt.bound[o.pred].ensureIndex(o.mask, rt.gov); err != nil {
				return err
			}
		}
	}
	return nil
}

// runJobs executes the round's jobs, each emitting into a private buffer;
// merge folds the buffers in job order.
func (rt *runtime) runJobs(jobs []job, deltas map[int]rowRange) ([]*emitBuf, error) {
	bufs := make([]*emitBuf, len(jobs))
	for k := range jobs {
		bufs[k] = &emitBuf{seen: make(map[string]bool)}
		if err := rt.newMachine(jobs[k], deltas, bufs[k]).step(0); err != nil {
			return nil, err
		}
	}
	return bufs, nil
}

// merge folds the round's buffers into the full store in fixed job order.
// Because relations are append-only, the globally-new rows of each head
// predicate form a contiguous suffix; the next round's deltas are just
// those row ranges, with no second relation to populate or index.
func (rt *runtime) merge(jobs []job, bufs []*emitBuf) (map[int]rowRange, bool, error) {
	next := make(map[int]rowRange)
	changed := false
	for k, b := range bufs {
		hp := jobs[k].rp.headPred
		rel := rt.bound[hp]
		arity := rt.plan.preds[hp].arity
		for i := 0; i < b.n; i++ {
			row := b.rows[i*arity : (i+1)*arity]
			added, scratch, err := rel.Insert(row, rt.scratch, rt.gov)
			rt.scratch = scratch
			if err != nil {
				return nil, false, err
			}
			if !added {
				continue
			}
			changed = true
			d, ok := next[hp]
			if !ok {
				d.from = int32(rel.Len()) - 1
			}
			d.to = int32(rel.Len())
			next[hp] = d
		}
	}
	return next, changed, nil
}

// externalize converts the interned relations back to a datalog.Store in
// deterministic (creation) order.
func (rt *runtime) externalize() *datalog.Store {
	out := datalog.NewStore()
	for _, pk := range rt.order {
		rel := rt.rels[pk]
		n := rel.Len()
		if n == 0 {
			continue
		}
		// Assemble the batch with fact and argument keys built from the
		// interner's canonical key strings: InsertBatch then loads the
		// predicate with presized maps and no key recomputation, which is
		// most of the cost of materializing a large model. Rows share flat
		// backing arrays and one key string per predicate, so the whole
		// batch is a handful of allocations instead of several per fact.
		facts := make([]datalog.Atom, n)
		keys := make([]string, n)
		argKeys := make([][]string, n)
		argsFlat := make([]term.Term, n*pk.arity)
		akFlat := make([]string, n*pk.arity)
		total := 0
		for r := int32(0); int(r) < n; r++ {
			base := int(r) * pk.arity
			total += len(pk.name) + 1 + pk.arity + 1
			for j := 0; j < pk.arity; j++ {
				id := rel.at(r, j)
				argsFlat[base+j] = rt.in.Extern(id)
				akFlat[base+j] = rt.in.key(id)
				total += len(akFlat[base+j])
			}
		}
		buf := make([]byte, 0, total)
		offs := make([]int, n+1)
		for r := 0; r < n; r++ {
			base := r * pk.arity
			buf = append(buf, pk.name...)
			buf = append(buf, '(')
			for j := 0; j < pk.arity; j++ {
				if j > 0 {
					buf = append(buf, ',')
				}
				buf = append(buf, akFlat[base+j]...)
			}
			buf = append(buf, ')')
			offs[r+1] = len(buf)
		}
		all := string(buf)
		for r := 0; r < n; r++ {
			base := r * pk.arity
			facts[r] = datalog.Atom{Pred: pk.name, Args: argsFlat[base : base+pk.arity : base+pk.arity]}
			keys[r] = all[offs[r]:offs[r+1]]
			argKeys[r] = akFlat[base : base+pk.arity : base+pk.arity]
		}
		out.InsertBatch(pk.name, facts, keys, argKeys) //nolint:errcheck // ground by construction, no fault hook
	}
	return out
}

// rowRange is a semi-naive delta: the contiguous rows [from, to) appended
// to a predicate's relation by the previous round's merge.
type rowRange struct{ from, to int32 }

// machine executes one job's op pipeline by depth-first join, emitting
// head rows into the job's private buffer.
type machine struct {
	rt    *runtime
	rp    *rulePlan
	delta rowRange // row view read by ops[deltaAt]
	dAt   int
	regs  []ID
	pool  []ID
	key   []byte
	row   []ID
	buf   *emitBuf
}

func (rt *runtime) newMachine(jb job, deltas map[int]rowRange, buf *emitBuf) *machine {
	m := &machine{
		rt:   rt,
		rp:   jb.rp,
		dAt:  jb.deltaAt,
		regs: make([]ID, jb.rp.nregs),
		pool: rt.pools[jb.rp],
		buf:  buf,
	}
	if jb.deltaAt >= 0 {
		m.delta = deltas[jb.rp.ops[jb.deltaAt].pred]
	}
	return m
}

// val resolves a known argument: a pooled constant or a bound register.
func (m *machine) val(a planArg) ID {
	if a.mode == argConst {
		return m.pool[a.pool]
	}
	return m.regs[a.reg]
}

// bind fills registers from one matched row, checking repeated-variable
// positions. Masked (constant/bound) positions were satisfied by the probe
// key, so only argBind/argCheck need work.
func (m *machine) bind(o *op, rel *Relation, r int32) bool {
	for j := range o.args {
		switch o.args[j].mode {
		case argBind:
			m.regs[o.args[j].reg] = rel.at(r, j)
		case argCheck:
			if rel.at(r, j) != m.regs[o.args[j].reg] {
				return false
			}
		}
	}
	return true
}

// argRow materializes a fully-known argument list into the row scratch.
func (m *machine) argRow(args []planArg) []ID {
	m.row = m.row[:0]
	for _, a := range args {
		m.row = append(m.row, m.val(a))
	}
	return m.row
}

func (m *machine) step(i int) error {
	if i == len(m.rp.ops) {
		return m.emit()
	}
	o := &m.rp.ops[i]
	switch o.kind {
	case opScan:
		rel := m.rt.bound[o.pred]
		from, to := int32(0), int32(rel.Len())
		if i == m.dAt {
			from, to = m.delta.from, m.delta.to
		}
		if to <= from {
			return nil
		}
		if o.mask != 0 {
			m.key = m.key[:0]
			for j := range o.args {
				if o.mask&(1<<uint(j)) != 0 {
					id := m.val(o.args[j])
					m.key = append(m.key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
				}
			}
			rows := rel.Probe(o.mask, m.key)
			if i == m.dAt {
				rows = rel.ProbeRange(o.mask, m.key, from, to)
			}
			for _, r := range rows {
				if err := m.rt.gov.Step(); err != nil {
					return err
				}
				if m.bind(o, rel, r) {
					if err := m.step(i + 1); err != nil {
						return err
					}
				}
			}
			return nil
		}
		for r := from; r < to; r++ {
			if err := m.rt.gov.Step(); err != nil {
				return err
			}
			if m.bind(o, rel, r) {
				if err := m.step(i + 1); err != nil {
					return err
				}
			}
		}
		return nil
	case opNeg:
		if err := m.rt.gov.Step(); err != nil {
			return err
		}
		row := m.argRow(o.args)
		ok, key := m.rt.bound[o.pred].Contains(row, m.key)
		m.key = key
		if ok {
			return nil
		}
		return m.step(i + 1)
	case opNeq:
		if err := m.rt.gov.Step(); err != nil {
			return err
		}
		if m.val(o.args[0]) == m.val(o.args[1]) {
			return nil
		}
		return m.step(i + 1)
	case opEqCheck:
		if err := m.rt.gov.Step(); err != nil {
			return err
		}
		if m.val(o.args[0]) != m.val(o.args[1]) {
			return nil
		}
		return m.step(i + 1)
	default: // opEqBind
		m.regs[o.args[0].reg] = m.val(o.args[1])
		return m.step(i + 1)
	}
}

// emit builds the head row, dedups against both the job buffer and the
// full store, and charges the governor for locally-new derivations — so a
// runaway round exhausts the budget at emission time, before the merge.
func (m *machine) emit() error {
	if err := m.rt.gov.Step(); err != nil {
		return err
	}
	m.row = m.row[:0]
	for _, a := range m.rp.head {
		m.row = append(m.row, m.val(a))
	}
	m.key = packIDs(m.key[:0], m.row)
	if m.buf.seen[string(m.key)] {
		return nil
	}
	if m.rt.bound[m.rp.headPred].containsKey(m.key) {
		return nil
	}
	m.buf.seen[string(m.key)] = true
	m.buf.n++
	m.buf.rows = append(m.buf.rows, m.row...)
	pred := m.rt.plan.preds[m.rp.headPred].name
	return m.rt.gov.Insert(m.rt.seedBytes(pred, m.row))
}
