package differential

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/multilog"
	"repro/internal/resource"
	"repro/internal/workload"
)

// This file is the oracle behind the server's shared serving: for a database
// every clause of which is a multilog.MonotoneClause, the reduction at a
// maximal level s, read at a clearance u ⪯ s (Reduction.View), must answer
// every query exactly as the reduction at u — answers, match steps, patch
// plan and dependencies. Its generator writes the rule shapes
// workload.ProgramSource never emits, monotone and not, over several lattice
// shapes, and the campaign checks that MonotoneClause classifies each one as
// its shape says.

// SharedCampaignResult summarizes a shared-serving campaign.
type SharedCampaignResult struct {
	Programs, Monotone int
	Probes             int // (probe, clearance, maximal level) triples compared on monotone programs
	// Shapes counts the generated clauses of each shape, by name.
	Shapes map[string]int
	// Diverged counts the non-monotone programs whose view at some clearance
	// answered otherwise than the reduction there: what the check guards.
	Diverged      int
	Misclassified []string // a clause MonotoneClause judged against its shape
	Divergences   []string // a monotone program's view that answered otherwise
}

// sharedShape is one rule shape of the generator: its name, whether it is
// monotone, and how it renders as the n-th derived predicate.
type sharedShape struct {
	name     string
	monotone bool
	// clause renders the shape, or "" when the lattice lacks what it needs
	// (a level strictly above another, a bottom). body is a goal's predicate
	// and attribute, "p1(K: a" or "q0(K: d".
	clause func(g *sharedGen, n int, body string) string
}

// sharedGen draws the parts of one generated program.
type sharedGen struct {
	r      *rand.Rand
	poset  *lattice.Poset
	bottom lattice.Label
	rumor  lattice.Label // the level of the program's one user-mode belief, in p0
}

func (g *sharedGen) level() lattice.Label {
	ls := g.poset.Labels()
	return ls[g.r.Intn(len(ls))]
}

// below draws a level hi dominates, or one it strictly dominates; "" when
// there is none.
func (g *sharedGen) below(hi lattice.Label, strict bool) lattice.Label {
	var ls []lattice.Label
	for _, l := range g.poset.DownSet(hi) {
		if !strict || l != hi {
			ls = append(ls, l)
		}
	}
	if len(ls) == 0 {
		return ""
	}
	return ls[g.r.Intn(len(ls))]
}

func (g *sharedGen) mode() string { return []string{"fir", "opt", "cau"}[g.r.Intn(3)] }

var sharedShapes = []sharedShape{
	{"constant", true, func(g *sharedGen, n int, body string) string {
		hi := g.level()
		return fmt.Sprintf("%s[q%d(K: d -%s-> V)] :- %s[%s -C-> V)] << %s.", hi, n, hi, g.below(hi, false), body, g.mode())
	}},
	{"level-variable", true, func(g *sharedGen, n int, body string) string {
		return fmt.Sprintf("L[q%d(K: d -L-> x)] :- L[%s -C-> V)] << cau.", n, body)
	}},
	{"same-level", true, func(g *sharedGen, n int, body string) string {
		l := g.level()
		return fmt.Sprintf("%s[q%d(K: d -C-> V)] :- %s[%s -C-> V)] << %s.", l, n, l, body, g.mode())
	}},
	{"class-from-body", true, func(g *sharedGen, n int, body string) string {
		hi := g.level()
		return fmt.Sprintf("%s[q%d(K: d -C-> V)] :- %s[%s -C-> V)] << %s.", hi, n, g.below(hi, false), body, g.mode())
	}},
	{"bottom-body", true, func(g *sharedGen, n int, body string) string {
		if g.bottom == "" {
			return ""
		}
		return fmt.Sprintf("L[q%d(K: d -C-> V)] :- %s[%s -C-> V)].", n, g.bottom, body)
	}},
	{"pi-read", true, func(g *sharedGen, n int, body string) string {
		hi := g.level()
		return fmt.Sprintf("%s[q%d(K: d -%s-> V)] :- %s[%s -C-> V)] << %s, hot(V).", hi, n, hi, g.below(hi, false), body, g.mode())
	}},
	{"write-down", false, func(g *sharedGen, n int, body string) string {
		hi := g.level()
		lo := g.below(hi, true)
		if lo == "" {
			return ""
		}
		return fmt.Sprintf("%s[q%d(K: d -%s-> V)] :- %s[%s -C-> V)] << opt.", lo, n, lo, hi, body)
	}},
	{"laundered-class", false, func(g *sharedGen, n int, body string) string {
		hi := g.level()
		return fmt.Sprintf("%s[q%d(K: d -C-> V)] :- %s[%s -D-> V)], cls(C).", hi, n, g.below(hi, false), body)
	}},
	{"user-mode", false, func(g *sharedGen, n int, body string) string {
		return fmt.Sprintf("%s[q%d(K: d -%s-> V)] :- %s[%s -C-> V)] << rumor.", g.rumor, n, g.rumor, g.rumor, body)
	}},
}

// sharedCase is one generated program: its source, and its rules by shape.
type sharedCase struct {
	src    string
	shapes map[string]sharedShape // by clause source
}

// The shapes of the Π rule every program has, and of every fact.
var piShape, factShape = sharedShape{name: "pi", monotone: true}, sharedShape{name: "fact", monotone: true}

// sharedCases generates n programs over chain, diamond, product and DAG
// lattices of 3–7 levels: facts classified at or below their levels, a Π
// rule and its facts, a user-mode belief fact, and four rules of monotone
// shapes reading base or earlier derived predicates; every other program
// also gets one rule of a non-monotone shape.
func sharedCases(seed int64, n int) []sharedCase {
	shapes := []workload.LatticeShape{workload.ShapeChain, workload.ShapeDiamond, workload.ShapeProduct, workload.ShapeDAG}
	var mono, non []sharedShape
	for _, sh := range sharedShapes {
		if sh.monotone {
			mono = append(mono, sh)
		} else {
			non = append(non, sh)
		}
	}
	out := make([]sharedCase, 0, n)
	for i := 0; i < n; i++ {
		r := rand.New(rand.NewSource(seed + int64(i)))
		poset := workload.Lattice(shapes[i%len(shapes)], 3+r.Intn(5), seed+int64(i))
		g := &sharedGen{r: r, poset: poset}
		g.rumor = g.level()
		if m := poset.Minimal(); len(m) == 1 {
			g.bottom = m[0]
		}
		var b strings.Builder
		for _, l := range poset.Labels() {
			fmt.Fprintf(&b, "level(%s).\n", l)
		}
		for _, e := range poset.CoverEdges() {
			fmt.Fprintf(&b, "order(%s, %s).\n", e[0], e[1])
		}
		for f := 0; f < 12; f++ {
			l := g.level()
			fmt.Fprintf(&b, "%s[p%d(k%d: a -%s-> v%d)].\n", l, r.Intn(3), r.Intn(4), g.below(l, false), r.Intn(4))
		}
		top := poset.Maximal()[0]
		fmt.Fprintf(&b, "tag(v0). tag(v2).\ncls(%s).\nbel(p0, k0, a, v1, %s, %s, rumor).\n", top, top, g.rumor)
		c := sharedCase{shapes: map[string]sharedShape{"hot(V) :- tag(V).": piShape}}
		b.WriteString("hot(V) :- tag(V).\n")
		rules := 4 + i%2
		for q := 0; q < rules; q++ {
			body := "p0(K: a" // a non-monotone rule reads p0, which the user-mode belief is of
			if q < 4 {
				body = fmt.Sprintf("p%d(K: a", r.Intn(3))
			}
			if q > 0 && q < 4 && r.Intn(2) == 0 {
				body = fmt.Sprintf("q%d(K: d", r.Intn(q))
			}
			var src string
			// A shape the lattice lacks the levels for gives way to the next.
			for k := 0; src == ""; k++ {
				sh := mono[(i+q+k)%len(mono)]
				if q == 4 {
					sh = non[(i/2+k)%len(non)]
				}
				src = sh.clause(g, q, body)
				c.shapes[src] = sh
			}
			b.WriteString(src + "\n")
		}
		c.src = b.String()
		out = append(out, c)
	}
	return out
}

// sharedProbes are the queries the campaign asks of every program: every
// predicate at a level variable as an m-atom and in each built-in mode, one
// at a constant level, a join, a Π goal and a user-mode belief.
func sharedProbes(db *multilog.Database, r *rand.Rand, poset *lattice.Poset) []multilog.Query {
	preds := map[string]string{}
	for _, c := range db.Sigma {
		preds[c.Head.M.Pred] = c.Head.M.Attr
	}
	var srcs []string
	names := make([]string, 0, len(preds))
	for p := range preds {
		names = append(names, p)
	}
	slices.Sort(names)
	for _, p := range names {
		goal := fmt.Sprintf("%s(K: %s -C-> V)]", p, preds[p])
		for _, m := range []string{"", " << fir", " << opt", " << cau"} {
			srcs = append(srcs, "L["+goal+m)
		}
		l := poset.Labels()[r.Intn(poset.Len())]
		srcs = append(srcs, fmt.Sprintf("%s[%s(k0: %s -C-> V)] << cau", l, p, preds[p]))
	}
	srcs = append(srcs, "L[p0(K: a -C-> V)], M[q0(K: d -D-> W)]", "hot(V)", "L[p0(K: a -C-> V)] << rumor")
	out := make([]multilog.Query, len(srcs))
	for i, s := range srcs {
		q, err := multilog.ParseGoals(s)
		if err != nil {
			//vet:allow nopanic -- a malformed probe is a harness bug, not a test failure
			panic(fmt.Sprintf("differential: bad shared probe %q: %v", s, err))
		}
		out[i] = q
	}
	return out
}

// RunSharedCampaign generates n programs (sharedCases), checks MonotoneClause
// against every generated rule's shape, and compares, at every clearance u
// and every maximal level s ⪰ u, the view at u of the prepared reduction at s
// with the prepared reduction at u over every probe: answers, match steps,
// QueryDeps, and whether a patch plan exists and which of a write's tuples it
// takes to touch its answers. A monotone program must agree everywhere; a
// non-monotone one is counted as diverged if it does not.
func RunSharedCampaign(seed int64, n int) SharedCampaignResult {
	res := SharedCampaignResult{Programs: n, Shapes: map[string]int{}}
	ctx := context.Background()
	for i, c := range sharedCases(seed, n) {
		db, err := multilog.Parse(c.src)
		if err == nil {
			err = db.CheckAdmissible()
		}
		if err != nil {
			//vet:allow nopanic -- a generator bug must abort the campaign loudly
			panic(fmt.Sprintf("differential: shared generator emitted a bad program:\n%s\n%v", c.src, err))
		}
		poset, _ := db.Poset()
		mono := true
		for _, cl := range append(slices.Clone(db.Sigma), db.Pi...) {
			sh, ok := c.shapes[cl.String()]
			if cl.IsFact() {
				sh, ok = factShape, true
			}
			if !ok {
				continue
			}
			res.Shapes[sh.name]++
			got := multilog.MonotoneClause(cl, poset)
			mono = mono && got
			if got != sh.monotone {
				res.Misclassified = append(res.Misclassified, fmt.Sprintf("%s clause %s classified monotone=%v", sh.name, cl, got))
			}
		}
		if mono {
			res.Monotone++
		}
		reds := map[lattice.Label]*multilog.Reduction{}
		for _, u := range poset.Labels() {
			red, err := multilog.Reduce(db, u)
			if err == nil {
				err = red.Prepare(ctx, resource.Limits{})
			}
			if err != nil {
				//vet:allow nopanic -- generated programs stratify by construction
				panic(fmt.Sprintf("differential: shared program does not reduce at %s: %v\n%s", u, err, c.src))
			}
			reds[u] = red
		}
		probes := sharedProbes(db, rand.New(rand.NewSource(seed+int64(i))), poset)
		diverged := false
		for _, u := range poset.Labels() {
			for _, s := range poset.Maximal() {
				if !poset.Dominates(s, u) {
					continue
				}
				view, err := reds[s].View(u)
				if err != nil {
					//vet:allow nopanic -- s dominates u
					panic(fmt.Sprintf("differential: %v", err))
				}
				for _, q := range probes {
					if mono {
						res.Probes++
					}
					if why := viewDiffers(view, reds[u], q); why != "" {
						diverged = true
						if mono {
							res.Divergences = append(res.Divergences,
								fmt.Sprintf("%s read at %s, probe %s: %s\nprogram:\n%s", s, u, multilog.Query(q), why, c.src))
						}
					}
				}
			}
		}
		if diverged && !mono {
			res.Diverged++
		}
	}
	return res
}

// viewDiffers says how view, a reduction read at own's clearance, answers q
// otherwise than own, or "".
func viewDiffers(view, own *multilog.Reduction, q multilog.Query) string {
	ctx := context.Background()
	va, vstats, verr := view.QueryPrepared(ctx, q, resource.Limits{})
	oa, ostats, oerr := own.QueryPrepared(ctx, q, resource.Limits{})
	switch {
	case fmt.Sprint(verr) != fmt.Sprint(oerr):
		return fmt.Sprintf("errors %v vs %v", verr, oerr)
	case answerKeys(va) != answerKeys(oa):
		return fmt.Sprintf("answers %s vs %s", answerKeys(va), answerKeys(oa))
	case vstats.Steps != ostats.Steps:
		return fmt.Sprintf("steps %d vs %d", vstats.Steps, ostats.Steps)
	}
	deps := own.QueryDeps(q)
	if got := view.QueryDeps(q); !slices.Equal(got, deps) {
		return fmt.Sprintf("deps %v vs %v", got, deps)
	}
	vp, op := view.PatchPlan(q), own.PatchPlan(q)
	if (vp == nil) != (op == nil) {
		return fmt.Sprintf("patch plan %v vs %v", vp != nil, op != nil)
	}
	if vp == nil {
		return ""
	}
	// A write that added every tuple of the relations q reads at the view's
	// reduction and deleted every one of own's: each plan takes the same
	// tuples to touch q's answers.
	vm, _ := view.Model()
	om, _ := own.Model()
	changed := map[string]datalog.PredDelta{}
	for _, d := range deps {
		changed[d] = datalog.PredDelta{Added: vm.Facts(d), Deleted: om.Facts(d)}
	}
	vAdd, vDel := vp.Touching(changed, nil, nil)
	oAdd, oDel := op.Touching(changed, nil, nil)
	if fmt.Sprint(vAdd, vDel) != fmt.Sprint(oAdd, oDel) {
		return fmt.Sprintf("patch touches %v %v vs %v %v", vAdd, vDel, oAdd, oDel)
	}
	return ""
}

func answerKeys(as []multilog.Answer) string {
	keys := make([]string, len(as))
	for i, a := range as {
		keys[i] = a.Key
	}
	return "[" + strings.Join(keys, " ") + "]"
}
