package compile

import (
	"fmt"
	"slices"

	"repro/internal/analysis"
	"repro/internal/datalog"
	"repro/internal/term"
)

// ErrFallback reports a program the compiler deliberately refuses: the
// caller must evaluate it with the tree-walking interpreter instead. This
// is a routing signal, not a failure — the compiled engine's contract is
// byte-agreement on everything it accepts, and falling back keeps that
// contract cheap to uphold for the constructs the register machine does
// not model.
type ErrFallback struct {
	// Construct names the construct refused, one of a fixed few ("nonlinear
	// recursion", "non-ground compound", …), for counting; Reason says
	// where.
	Construct, Reason string
}

func (e *ErrFallback) Error() string { return "compile: fallback to interpreter: " + e.Reason }

// IsFallback reports whether err asks the caller to use the interpreter.
func IsFallback(err error) bool {
	_, ok := err.(*ErrFallback)
	return ok
}

// predKey identifies one relation: predicates of the same name but
// different arities are kept apart, as datalog.Store keeps them.
type predKey struct {
	name  string
	arity int
}

// argMode says how one argument position of an op is satisfied.
type argMode uint8

const (
	argConst argMode = iota // interned constant from the rule's pool
	argBound                // register bound by an earlier op
	argBind                 // first occurrence: bind the register from the row
	argCheck                // repeated occurrence within the same op: compare
)

// planArg is one compiled argument position.
type planArg struct {
	mode argMode
	reg  int // argBound, argBind, argCheck
	pool int // argConst
}

type opKind uint8

const (
	opScan    opKind = iota // positive relational literal: probe or scan
	opNeg                   // negated literal, all arguments known
	opNeq                   // '!=' over two known values
	opEqCheck               // '=' over two known values
	opEqBind                // '=' binding one register from a known value
)

// op is one step of a rule's join pipeline.
type op struct {
	kind opKind
	pred int       // plan predicate index (opScan, opNeg)
	args []planArg // per position (opScan/opNeg); [a, b] (opNeq/opEqCheck); [dst, src] (opEqBind)
	mask uint32    // opScan: positions known before the op (probe key)
}

// rulePlan is one compiled clause: the body as an op pipeline in the
// static SIPS order, plus the head constructor.
type rulePlan struct {
	src      string // clause text, for diagnostics
	ops      []op
	head     []planArg
	headPred int
	nregs    int
	pool     []term.Term // ground constants referenced by the clause
	variants []int       // op indexes eligible to read the semi-naive delta
}

// stratumPlan groups the compiled rules of one stratum with the predicates
// they define (the predicates whose growth drives re-evaluation).
type stratumPlan struct {
	rules []*rulePlan
	idb   []int
}

// Plan is the compiled, fact-independent form of a program's rules. Plans
// are immutable after Compile and safe for concurrent runs; every run
// carries its own interner and relations.
type Plan struct {
	preds  []predKey
	predIx map[predKey]int
	strata []stratumPlan
}

// Predicates returns the names referenced by the compiled rules, sorted
// per first assignment; the plan cache records them for impact-graph
// invalidation.
func (pl *Plan) Predicates() []string {
	out := make([]string, 0, len(pl.preds))
	seen := map[string]bool{}
	for _, pk := range pl.preds {
		if !seen[pk.name] {
			seen[pk.name] = true
			out = append(out, pk.name)
		}
	}
	return out
}

// ruleSubset returns a program's rules, without its facts.
func ruleSubset(p *datalog.Program) *datalog.Program {
	rules := &datalog.Program{}
	for _, c := range p.Clauses {
		if !c.IsFact() {
			rules.Add(c)
		}
	}
	return rules
}

// Compile validates and compiles a program's rules into a reusable Plan.
// The facts of p are ignored here — they are run-time data — so one Plan
// serves every fact set sharing the rule set. Returns *ErrFallback for the
// constructs routed to the interpreter: non-ground compound terms,
// equality between two still-unbound variables, arities beyond the probe
// mask width, and nonlinear recursion (lint's DL010, analysis.Nonlinear,
// which stays on the interpreter until the compiled delta rewrite is
// proven).
func Compile(p *datalog.Program) (*Plan, error) {
	if err := datalog.Validate(p); err != nil {
		return nil, err
	}
	rules := ruleSubset(p)
	strata, err := datalog.Strata(rules)
	if err != nil {
		return nil, err
	}
	if sites := analysis.Nonlinear(rules); len(sites) > 0 {
		first := sites[0].Head
		for _, site := range sites[1:] {
			first = min(first, site.Head)
		}
		return nil, &ErrFallback{Construct: "nonlinear recursion", Reason: fmt.Sprintf("nonlinear recursion through %s (DL010)", first)}
	}
	pl := &Plan{predIx: map[predKey]int{}}
	for _, clauses := range strata {
		var sp stratumPlan
		heads := map[predKey]bool{}
		for _, c := range clauses {
			heads[predKey{c.Head.Pred, c.Head.Arity()}] = true
		}
		for _, c := range clauses {
			rp, err := pl.compileClause(c, heads)
			if err != nil {
				return nil, err
			}
			sp.rules = append(sp.rules, rp)
			if !slices.Contains(sp.idb, rp.headPred) {
				sp.idb = append(sp.idb, rp.headPred)
			}
		}
		if len(sp.rules) > 0 {
			pl.strata = append(pl.strata, sp)
		}
	}
	return pl, nil
}

// pred assigns (or returns) the dense index for a predicate/arity pair.
func (pl *Plan) pred(name string, arity int) int {
	pk := predKey{name, arity}
	if ix, ok := pl.predIx[pk]; ok {
		return ix
	}
	ix := len(pl.preds)
	pl.predIx[pk] = ix
	pl.preds = append(pl.preds, pk)
	return ix
}

// compileClause lowers one clause to a rulePlan. Body literals are taken
// in the shared SIPS order (datalog.OrderBody) and then consumed by the
// same "first ready" rule the interpreter uses: positives immediately,
// '=' once a side is known, '!=' and negation once ground.
func (pl *Plan) compileClause(c datalog.Clause, stratumHeads map[predKey]bool) (*rulePlan, error) {
	rp := &rulePlan{src: c.String()}
	body := datalog.OrderBody(c.Body)

	regOf := map[string]int{}
	bound := map[string]bool{}
	poolOf := map[string]int{}
	reg := func(name string) int {
		if r, ok := regOf[name]; ok {
			return r
		}
		r := rp.nregs
		regOf[name] = r
		rp.nregs++
		return r
	}
	pool := func(t term.Term) (int, error) {
		if !t.IsGround() {
			return 0, &ErrFallback{Construct: "non-ground compound", Reason: fmt.Sprintf("non-ground compound term %s in %s", t, rp.src)}
		}
		key := t.Key()
		if ix, ok := poolOf[key]; ok {
			return ix, nil
		}
		ix := len(rp.pool)
		poolOf[key] = ix
		rp.pool = append(rp.pool, t)
		return ix, nil
	}
	// known compiles a term whose value must be available before the op:
	// a ground term or an already-bound variable.
	known := func(t term.Term) (planArg, bool, error) {
		if t.IsVar() {
			if bound[t.Name()] {
				return planArg{mode: argBound, reg: reg(t.Name())}, true, nil
			}
			return planArg{}, false, nil
		}
		ix, err := pool(t)
		if err != nil {
			return planArg{}, false, err
		}
		return planArg{mode: argConst, pool: ix}, true, nil
	}
	allKnown := func(a datalog.Atom) ([]planArg, bool, error) {
		args := make([]planArg, len(a.Args))
		for i, t := range a.Args {
			pa, ok, err := known(t)
			if err != nil || !ok {
				return nil, ok, err
			}
			args[i] = pa
		}
		return args, true, nil
	}

	remaining := make([]int, len(body))
	for i := range remaining {
		remaining[i] = i
	}
	for len(remaining) > 0 {
		pick := -1
		for pi, bi := range remaining {
			l := body[bi]
			switch {
			case !l.Negated && !l.Atom.IsBuiltin():
				pick = pi
			case l.Atom.Pred == datalog.BuiltinEq && !l.Negated:
				a, b := l.Atom.Args[0], l.Atom.Args[1]
				if !a.IsVar() || !b.IsVar() || bound[a.Name()] || bound[b.Name()] ||
					a.Name() == b.Name() {
					pick = pi
				}
			default: // '!=' or negation: ready only when every variable is bound
				ready := true
				for _, v := range l.Atom.Vars(nil) {
					if !bound[v] {
						ready = false
						break
					}
				}
				if ready {
					pick = pi
				}
			}
			if pick >= 0 {
				break
			}
		}
		if pick < 0 {
			// Either an unbound-unbound equality chain the register machine
			// does not alias, or a floundering body Validate let through.
			return nil, &ErrFallback{Construct: "no ready literal", Reason: "no ready literal (unbound equality or floundering) in " + rp.src}
		}
		l := body[remaining[pick]]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		switch {
		case l.Atom.Pred == datalog.BuiltinEq:
			a, b := l.Atom.Args[0], l.Atom.Args[1]
			if a.IsVar() && b.IsVar() && a.Name() == b.Name() {
				continue // X = X: trivially true, binds nothing
			}
			pa, aok, err := known(a)
			if err != nil {
				return nil, err
			}
			pb, bok, err := known(b)
			if err != nil {
				return nil, err
			}
			switch {
			case aok && bok:
				rp.ops = append(rp.ops, op{kind: opEqCheck, args: []planArg{pa, pb}})
			case aok: // b is an unbound variable
				rp.ops = append(rp.ops, op{kind: opEqBind,
					args: []planArg{{mode: argBind, reg: reg(b.Name())}, pa}})
				bound[b.Name()] = true
			default: // a is an unbound variable (pick guaranteed one side known)
				rp.ops = append(rp.ops, op{kind: opEqBind,
					args: []planArg{{mode: argBind, reg: reg(a.Name())}, pb}})
				bound[a.Name()] = true
			}
		case l.Atom.Pred == datalog.BuiltinNeq:
			args, _, err := allKnown(l.Atom)
			if err != nil {
				return nil, err
			}
			rp.ops = append(rp.ops, op{kind: opNeq, args: args})
		case l.Negated:
			args, _, err := allKnown(l.Atom)
			if err != nil {
				return nil, err
			}
			rp.ops = append(rp.ops, op{kind: opNeg,
				pred: pl.pred(l.Atom.Pred, l.Atom.Arity()), args: args})
		default:
			if l.Atom.Arity() > 32 {
				return nil, &ErrFallback{Construct: "arity beyond probe mask", Reason: "arity beyond probe mask width in " + rp.src}
			}
			args := make([]planArg, l.Atom.Arity())
			var mask uint32
			local := map[string]int{}
			for j, t := range l.Atom.Args {
				if t.IsVar() {
					name := t.Name()
					switch {
					case bound[name]:
						args[j] = planArg{mode: argBound, reg: reg(name)}
						mask |= 1 << uint(j)
					case local[name] != 0:
						args[j] = planArg{mode: argCheck, reg: local[name] - 1}
					default:
						r := reg(name)
						args[j] = planArg{mode: argBind, reg: r}
						local[name] = r + 1
					}
					continue
				}
				ix, err := pool(t)
				if err != nil {
					return nil, err
				}
				args[j] = planArg{mode: argConst, pool: ix}
				mask |= 1 << uint(j)
			}
			for name := range local {
				bound[name] = true
			}
			pk := predKey{l.Atom.Pred, l.Atom.Arity()}
			o := op{kind: opScan, pred: pl.pred(pk.name, pk.arity), args: args, mask: mask}
			if stratumHeads[pk] {
				rp.variants = append(rp.variants, len(rp.ops))
			}
			rp.ops = append(rp.ops, o)
		}
	}

	rp.headPred = pl.pred(c.Head.Pred, c.Head.Arity())
	rp.head = make([]planArg, c.Head.Arity())
	for i, t := range c.Head.Args {
		pa, ok, err := known(t)
		if err != nil {
			return nil, err
		}
		if !ok {
			// Range restriction should have bound every head variable.
			return nil, &ErrFallback{Construct: "unbound head variable", Reason: fmt.Sprintf("head variable %s unbound after body in %s", t, rp.src)}
		}
		rp.head[i] = pa
	}
	return rp, nil
}
