package compile

import (
	"context"
	"fmt"

	"repro/internal/datalog"
	"repro/internal/resource"
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

// runtime is the mutable state of one run: the store it builds the model
// in, with its interner, one Relation per predicate, and the governor. A
// runtime is used once and discarded.
type runtime struct {
	plan  *Plan
	gov   *resource.Governor
	model *datalog.Store
	in    *Interner
	rels  map[predKey]*Relation
	bound []*Relation // by plan predicate index
	delta []rowRange  // by plan predicate index: the last round's new rows
	pools map[*rulePlan][]ID
	stats *Stats
}

// Run evaluates the plan over the program's facts plus edb. The plan holds
// no fact state, so one plan serves concurrent Runs. On a resource-limit
// error the partial model is returned alongside the error, mirroring the
// interpreter contract.
//
// The run computes the model in the store it returns: its relations are
// that store's, rows of IDs under the store's interner, so handing the model
// over does no per-tuple work. A relation no tuple reached stays empty.
func (pl *Plan) Run(ctx context.Context, p *datalog.Program, edb *datalog.Store, opts Options) (*datalog.Store, *Stats, error) {
	rt := pl.newRuntime(ctx, opts)
	return rt.handOver(rt.run(p, edb))
}

// newRuntime returns a run of the plan over a fresh store, bounded by ctx
// and opts.
func (pl *Plan) newRuntime(ctx context.Context, opts Options) *runtime {
	gov := resource.New(ctx, opts.Limits)
	model := datalog.NewStore()
	rt := &runtime{
		plan:  pl,
		gov:   gov,
		model: model,
		in:    &Interner{gov: gov, in: model.Interner()},
		rels:  make(map[predKey]*Relation, len(pl.preds)),
		bound: make([]*Relation, len(pl.preds)),
		delta: make([]rowRange, len(pl.preds)),
		pools: make(map[*rulePlan][]ID),
		stats: &Stats{},
	}
	for i, pk := range pl.preds {
		rt.bound[i] = rt.rel(pk)
	}
	return rt
}

// handOver ends a run whose fixpoint returned err: the model is the store
// the run computed in, returned as it stands, with the run's stats — or nil
// on an error that is not a resource limit.
func (rt *runtime) handOver(err error) (*datalog.Store, *Stats, error) {
	rt.stats.Symbols = rt.in.Len()
	rt.stats.Resource = rt.gov.Snapshot()
	if err != nil && !resource.IsLimit(err) {
		return nil, rt.stats, err
	}
	rt.stats.Facts = rt.model.Len()
	if err != nil {
		rt.stats.Resource.Truncated = true
	}
	return rt.model, rt.stats, err
}

// rel returns (creating if needed) the relation for a predicate/arity.
func (rt *runtime) rel(pk predKey) *Relation {
	if r, ok := rt.rels[pk]; ok {
		return r
	}
	r := &Relation{arity: pk.arity, rows: rt.model.Relation(pk.name, pk.arity)}
	rt.rels[pk] = r
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
	added, err := rel.Insert(row, rt.gov)
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
// delta-readable scan op) whose delta is non-empty. A job inserts each head
// row as it derives it, so later jobs of the round already read it, as in
// the interpreter's sequential rounds; a predicate's delta is the rows
// appended to it during the round, a contiguous suffix of its relation.
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
	start := make([]int32, len(sp.idb))
	for {
		rt.stats.Rounds++
		if err := rt.gov.Check(); err != nil {
			return err
		}
		if err := rt.ensureIndexes(jobs); err != nil {
			return err
		}
		for i, p := range sp.idb {
			start[i] = int32(rt.bound[p].Len())
		}
		for _, jb := range jobs {
			if err := rt.newMachine(jb).step(0); err != nil {
				return err
			}
		}
		jobs = jobs[:0]
		for i, p := range sp.idb {
			rt.delta[p] = rowRange{start[i], int32(rt.bound[p].Len())}
		}
		for _, rp := range sp.rules {
			for _, v := range rp.variants {
				if d := rt.delta[rp.ops[v].pred]; d.to > d.from {
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
// probe, so that the jobs only read the indexes: a row a job inserts is
// indexed at the next round's call, and its delta carries it there. Delta
// scans probe the base
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

// rowRange is a semi-naive delta: the contiguous rows [from, to) appended
// to a predicate's relation during the previous round.
type rowRange struct{ from, to int32 }

// machine executes one job's op pipeline by depth-first join, inserting
// each new head row into its relation.
type machine struct {
	rt    *runtime
	rp    *rulePlan
	delta rowRange // row view read by ops[deltaAt]
	dAt   int
	regs  []ID
	pool  []ID
	key   []byte
	row   []ID
}

func (rt *runtime) newMachine(jb job) *machine {
	m := &machine{
		rt:   rt,
		rp:   jb.rp,
		dAt:  jb.deltaAt,
		regs: make([]ID, jb.rp.nregs),
		pool: rt.pools[jb.rp],
	}
	if jb.deltaAt >= 0 {
		m.delta = rt.delta[jb.rp.ops[jb.deltaAt].pred]
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
		if m.rt.bound[o.pred].Contains(m.argRow(o.args)) {
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

// emit builds the head row and inserts it into the head relation, charging
// the governor once for each new fact, as the interpreter does, so a runaway
// round exhausts the budget at emission time.
func (m *machine) emit() error {
	if err := m.rt.gov.Step(); err != nil {
		return err
	}
	m.row = m.row[:0]
	for _, a := range m.rp.head {
		m.row = append(m.row, m.val(a))
	}
	added, err := m.rt.bound[m.rp.headPred].Insert(m.row, m.rt.gov)
	if err != nil || !added {
		return err
	}
	pred := m.rt.plan.preds[m.rp.headPred].name
	return m.rt.gov.Insert(m.rt.seedBytes(pred, m.row))
}
