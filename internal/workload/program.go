package workload

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/lattice"
	"repro/internal/multilog"
)

// ClauseShape names the form of a generated clause. Every campaign draws its
// programs and writes from a Mix of shapes, counts the clauses of each shape
// it drew, and fails on a shape it declares and never drew.
type ClauseShape string

// The shapes. Those up to Fact are monotone (multilog.MonotoneClause accepts
// them); WriteDown, LaunderedClass and UserMode are not; lint ML009 refuses
// ReservedName and Dominate.
const (
	ConstantLevel  ClauseShape = "constant-level"  // ProgramSource's rule: a head level strictly above the body's
	LevelVariable  ClauseShape = "level-variable"  // derives at every level from the same level
	SameLevel      ClauseShape = "same-level"      // reads and derives at one level
	ClassFromBody  ClauseShape = "class-from-body" // the head cell is classified as the cell it read
	BottomBody     ClauseShape = "bottom-body"     // every level reads the bottom
	PiReading      ClauseShape = "pi-reading"      // a belief joined with a Π predicate
	Recursive      ClauseShape = "recursive"       // a predicate from itself, key and value swapped
	Fact           ClauseShape = "fact"            // a Σ fact classified at or below its level
	WriteDown      ClauseShape = "write-down"      // derives strictly below the level it reads
	LaunderedClass ClauseShape = "laundered-class" // the head cell's class is any level of Λ
	UserMode       ClauseShape = "user-mode"       // a belief in a mode Π's bel/7 facts define
	ReservedName   ClauseShape = "reserved-name"   // writes into, or reads out of, a relation τ introduces
	Dominate       ClauseShape = "dominate"        // a Π fact of τ's dominance relation
	Retract        ClauseShape = "retract"         // a write taking a stored Σ or Π clause out
)

// shapes is the order a Mix draws over its shapes and falls back through them.
var shapes = []ClauseShape{ConstantLevel, LevelVariable, SameLevel, ClassFromBody, BottomBody, PiReading, Recursive,
	Fact, WriteDown, LaunderedClass, UserMode, ReservedName, Dominate, Retract}

// Monotone reports whether multilog.MonotoneClause accepts every clause of s.
func (s ClauseShape) Monotone() bool { return slices.Index(shapes, s) <= slices.Index(shapes, Fact) }

// Mix weighs the shapes a program's rules, or a write, are drawn from.
type Mix map[ClauseShape]int

// MonotoneMix, NonMonotoneMix and HostileMix weigh each shape of a class 1.
var (
	MonotoneMix    = Mix{ConstantLevel: 1, LevelVariable: 1, SameLevel: 1, ClassFromBody: 1, BottomBody: 1, PiReading: 1, Recursive: 1}
	NonMonotoneMix = Mix{WriteDown: 1, LaunderedClass: 1, UserMode: 1}
	HostileMix     = Mix{ReservedName: 1, Dominate: 1}
)

// With returns the union of m and o, with o's weight where both weigh a shape.
func (m Mix) With(o Mix) Mix {
	out := Mix{}
	for _, mix := range []Mix{m, o} {
		for s, w := range mix {
			out[s] = w
		}
	}
	return out
}

// Shapes lists the shapes m weighs, in draw order.
func (m Mix) Shapes() []ClauseShape {
	return slices.DeleteFunc(slices.Clone(shapes), func(s ClauseShape) bool { return m[s] <= 0 })
}

// Report logs, through logf, how many of counts each shape of m has, and
// returns the shapes it has none of: every campaign fails on those.
func (m Mix) Report(logf func(string, ...any), counts map[ClauseShape]int) []ClauseShape {
	for _, s := range m.Shapes() {
		logf("shape %-16s %d drawn", s, counts[s])
	}
	return slices.DeleteFunc(m.Shapes(), func(s ClauseShape) bool { return counts[s] > 0 })
}

// draw picks a shape with probability proportional to its weight; a mix of
// one shape draws nothing from r.
func (m Mix) draw(r *rand.Rand) ClauseShape {
	ss := m.Shapes()
	if len(ss) == 1 {
		return ss[0]
	}
	n := 0
	for _, s := range ss {
		n += m[s]
	}
	n = r.Intn(n)
	for _, s := range ss {
		if n -= m[s]; n < 0 {
			return s
		}
	}
	return ss[0]
}

// Program is a generated program, its lattice, and its rules with their
// shapes.
type Program struct {
	Source  string
	Poset   *lattice.Poset
	Clauses []Clause
}

// Clause is one drawn clause, as source text.
type Clause struct {
	Src   string
	Shape ClauseShape
}

// Write is one drawn write: a clause to assert, or to retract.
type Write struct {
	Clause
	Retract bool
}

// Generate draws the program spec describes: Λ, the facts, the Π clauses
// the mix's shapes read (tag/hot for PiReading, a bel/7 fact for UserMode),
// then each rule from the mix. The same spec gives the same bytes.
func Generate(spec ProgramConfig) *Program {
	if spec.Levels < 2 {
		spec.Levels = 2
	}
	if spec.Preds < 1 {
		spec.Preds = 2
	}
	if spec.Mix == nil {
		spec.Mix = Mix{ConstantLevel: 1}
	}
	r := rand.New(rand.NewSource(spec.Seed))
	poset := Lattice(spec.Lattice, spec.Levels, spec.Seed)
	g := newGen(r, poset)
	var b strings.Builder
	for _, l := range g.levels {
		fmt.Fprintf(&b, "level(%s).\n", l)
	}
	for _, e := range poset.CoverEdges() {
		fmt.Fprintf(&b, "order(%s, %s).\n", e[0], e[1])
	}
	for i := 0; i < spec.Preds; i++ {
		g.base = append(g.base, pred{fmt.Sprintf("p%d", i), "a"})
	}
	for i := 0; i < spec.Facts; i++ {
		l := g.level()
		p, key, val := r.Intn(spec.Preds), r.Intn(spec.Facts/2+1), r.Intn(5)
		class := l
		if spec.ClassBelow {
			class = g.below(l, false)
		}
		fmt.Fprintf(&b, "%s[p%d(k%d: a -%s-> v%d)].\n", l, p, key, class, val)
		if above := g.above(l); spec.Poly > 0 && len(above) > 0 && r.Float64() < spec.Poly {
			hi := above[r.Intn(len(above))]
			fmt.Fprintf(&b, "%s[p%d(k%d: a -%s-> w%d)].\n", hi, p, key, hi, r.Intn(5))
		}
	}
	if spec.Mix[PiReading] > 0 {
		b.WriteString("tag(v0).\ntag(v2).\nhot(V) :- tag(V).\n")
		g.pi = []string{"hot", "tag"}
	}
	if spec.Mix[UserMode] > 0 {
		top := poset.Maximal()[0]
		fmt.Fprintf(&b, "bel(p0, k0, a, v1, %s, %s, rumor).\n", top, top)
		g.modes = []userMode{{"rumor", g.base[0]}}
	}
	prog := &Program{Poset: poset}
	for i := 0; i < spec.Rules; i++ {
		c := g.clause(spec.Mix, i)
		b.WriteString(c.Src + "\n")
		prog.Clauses = append(prog.Clauses, c)
	}
	prog.Source = b.String()
	return prog
}

// DrawWrite draws the n-th write against db, whose lattice is poset, from
// mix: one of db's Σ or Π clauses to retract, or a clause of a drawn shape
// over db's own vocabulary, through the path Generate draws rules by. Its
// head is a fresh predicate, or, for ConstantLevel, half the time one of db's.
func DrawWrite(r *rand.Rand, db *multilog.Database, poset *lattice.Poset, mix Mix, n int) Write {
	g := newGen(r, poset)
	g.learn(db)
	g.fresh, g.retarget = "w", true
	if mix.draw(r) == Retract {
		kind := r.Intn(4)
		for k := 0; k < 4; k++ { // a Σ or Π fact or rule, or whichever db has
			cs := slices.DeleteFunc(slices.Clone([][]multilog.Clause{db.Sigma, db.Pi}[(kind+k)%2]),
				func(c multilog.Clause) bool { return c.IsFact() != ((kind+k)/2%2 == 0) })
			if len(cs) > 0 {
				return Write{Clause{cs[r.Intn(len(cs))].String(), Retract}, true}
			}
		}
	}
	return Write{Clause: g.clause(mix.With(Mix{Retract: 0}), n)}
}

// pred is an m-predicate and the attribute its cells carry.
type pred struct{ name, attr string }

// userMode is a belief mode a bel/7 fact defines, and its predicate.
type userMode struct {
	mode string
	of   pred
}

// gen draws clauses over a vocabulary: a lattice, base predicates (with
// facts), derived ones, unary Π predicates and user modes.
type gen struct {
	r             *rand.Rand
	poset         *lattice.Poset
	levels        []lattice.Label
	bottom        lattice.Label // "" when the lattice has none
	base, derived []pred
	pi            []string
	modes         []userMode
	fresh         string // prefix of a new head: q in a program, w in a write
	retarget      bool   // a ConstantLevel head may be a predicate the vocabulary has
}

func newGen(r *rand.Rand, poset *lattice.Poset) *gen {
	g := &gen{r: r, poset: poset, levels: poset.Labels(), fresh: "q"}
	if m := poset.Minimal(); len(m) == 1 {
		g.bottom = m[0]
	}
	return g
}

// learn reads db's vocabulary: its m-predicates by name (derived when only a
// rule derives one), its unary Π predicates and its user modes.
func (g *gen) learn(db *multilog.Database) {
	kind, attr := map[string]int{}, map[string]string{} // 0 read, 1 derived, 2 with a fact
	note := func(m multilog.MAtom, k int) {
		if old, ok := kind[m.Pred]; !ok || k > old {
			kind[m.Pred], attr[m.Pred] = k, m.Attr
		}
	}
	for _, c := range db.Sigma {
		k := 1 // a rule's head
		if c.IsFact() {
			k = 2
		}
		note(c.Head.M, k)
		for _, b := range c.Body {
			if b.Kind == multilog.GoalM || b.Kind == multilog.GoalB {
				note(b.M, 0)
			}
		}
	}
	for name, k := range kind {
		if k == 1 {
			g.derived = append(g.derived, pred{name, attr[name]})
		} else {
			g.base = append(g.base, pred{name, attr[name]})
		}
	}
	byName := func(a, b pred) int { return strings.Compare(a.name, b.name) }
	slices.SortFunc(g.base, byName)
	slices.SortFunc(g.derived, byName)
	if len(g.base) == 0 {
		g.base = []pred{{"p0", "a"}}
	}
	for _, c := range db.Pi {
		switch h := c.Head.P; {
		case h.Arity() == 1 && !slices.Contains(g.pi, h.Pred):
			g.pi = append(g.pi, h.Pred)
		case h.Pred == multilog.UserBelPred && h.Arity() == 7 && h.Args[6].IsGround() && h.Args[0].IsGround():
			g.modes = append(g.modes, userMode{h.Args[6].Name(), pred{h.Args[0].Name(), h.Args[2].Name()}})
		}
	}
}

func (g *gen) level() lattice.Label { return g.levels[g.r.Intn(len(g.levels))] }

func (g *gen) mode() string { return []string{"fir", "opt", "cau"}[g.r.Intn(3)] }

// below draws a level hi dominates, or strictly dominates; "" when none.
func (g *gen) below(hi lattice.Label, strict bool) lattice.Label {
	ls := slices.DeleteFunc(g.poset.DownSet(hi), func(l lattice.Label) bool { return strict && l == hi })
	if len(ls) == 0 {
		return ""
	}
	return ls[g.r.Intn(len(ls))]
}

// above lists the levels strictly above l.
func (g *gen) above(l lattice.Label) []lattice.Label {
	return slices.DeleteFunc(g.poset.UpSet(l), func(h lattice.Label) bool { return h == l })
}

// strictPair draws a level with a level below it, and a level it strictly
// dominates; "" when the lattice has one level.
func (g *gen) strictPair() (hi, lo lattice.Label) {
	his := slices.DeleteFunc(slices.Clone(g.levels), func(l lattice.Label) bool { return len(g.poset.DownSet(l)) < 2 })
	if len(his) == 0 {
		return "", ""
	}
	hi = his[g.r.Intn(len(his))]
	return hi, g.below(hi, true)
}

// body draws the predicate a rule reads: a base one, or half the time one
// already derived.
func (g *gen) body() pred {
	if len(g.derived) > 0 && g.r.Intn(2) == 0 {
		return g.derived[g.r.Intn(len(g.derived))]
	}
	return g.base[g.r.Intn(len(g.base))]
}

// clause draws the n-th clause from mix; a shape the lattice or the
// vocabulary lacks what it needs for (a level below another, a bottom, a Π
// predicate, a user mode) gives way to the next in draw order.
func (g *gen) clause(mix Mix, n int) Clause {
	ss := mix.Shapes()
	at := slices.Index(ss, mix.draw(g.r))
	for k := range ss {
		shape := ss[(at+k)%len(ss)]
		if src := g.render(shape, n); src != "" {
			return Clause{src, shape}
		}
	}
	//vet:allow nopanic -- every mix holds a shape any lattice renders
	panic(fmt.Sprintf("workload: no shape of %v renders here", ss))
}

// render writes the n-th clause of a shape, or "" when it cannot.
func (g *gen) render(shape ClauseShape, n int) string {
	h := pred{fmt.Sprintf("%s%d", g.fresh, n), "d"}
	var src string
	switch shape {
	case ConstantLevel:
		hi, lo := g.strictPair()
		if hi == "" {
			return ""
		}
		if all := append(slices.Clone(g.base), g.derived...); g.retarget && g.r.Intn(2) == 0 {
			// Its head is strictly above its body, so this closes no cycle
			// through a belief's negation.
			h = all[g.r.Intn(len(all))]
		}
		src = fmt.Sprintf("%s[%s(K: %s -%s-> derived%d)] :- %s[%s(K: a -C-> V)] << %s.",
			hi, h.name, h.attr, hi, n, lo, g.base[g.r.Intn(len(g.base))].name, g.mode())
	case LevelVariable:
		b := g.body()
		src = fmt.Sprintf("L[%s(K: %s -L-> x)] :- L[%s(K: %s -C-> V)] << cau.", h.name, h.attr, b.name, b.attr)
	case SameLevel:
		b, l := g.body(), g.level()
		src = fmt.Sprintf("%s[%s(K: %s -C-> V)] :- %s[%s(K: %s -C-> V)] << %s.", l, h.name, h.attr, l, b.name, b.attr, g.mode())
	case ClassFromBody:
		b, hi := g.body(), g.level()
		src = fmt.Sprintf("%s[%s(K: %s -C-> V)] :- %s[%s(K: %s -C-> V)] << %s.", hi, h.name, h.attr, g.below(hi, false), b.name, b.attr, g.mode())
	case BottomBody:
		if g.bottom == "" {
			return ""
		}
		b := g.body()
		src = fmt.Sprintf("L[%s(K: %s -C-> V)] :- %s[%s(K: %s -C-> V)], level(L).", h.name, h.attr, g.bottom, b.name, b.attr)
	case PiReading:
		if len(g.pi) == 0 {
			return ""
		}
		b, hi := g.body(), g.level()
		src = fmt.Sprintf("%s[%s(K: %s -%s-> V)] :- %s[%s(K: %s -C-> V)] << %s, %s(V).",
			hi, h.name, h.attr, hi, g.below(hi, false), b.name, b.attr, g.mode(), g.pi[g.r.Intn(len(g.pi))])
	case Recursive:
		b := g.body()
		return fmt.Sprintf("L[%s(K: %s -C-> V)] :- L[%s(V: %s -C-> K)].", b.name, b.attr, b.name, b.attr)
	case Fact:
		b, l := g.base[g.r.Intn(len(g.base))], g.level()
		return fmt.Sprintf("%s[%s(w%d: %s -%s-> x%d)].", l, b.name, n, b.attr, g.below(l, false), n)
	case WriteDown:
		hi, lo := g.strictPair()
		if hi == "" {
			return ""
		}
		b := g.body()
		src = fmt.Sprintf("%s[%s(K: %s -%s-> V)] :- %s[%s(K: %s -C-> V)] << opt.", lo, h.name, h.attr, lo, hi, b.name, b.attr)
	case LaunderedClass:
		b, hi := g.body(), g.level()
		src = fmt.Sprintf("%s[%s(K: %s -C-> V)] :- %s[%s(K: %s -D-> V)], level(C).", hi, h.name, h.attr, g.below(hi, false), b.name, b.attr)
	case UserMode:
		if len(g.modes) == 0 {
			return ""
		}
		m, l := g.modes[g.r.Intn(len(g.modes))], g.level()
		src = fmt.Sprintf("%s[%s(K: %s -%s-> V)] :- %s[%s(K: %s -C-> V)] << %s.", l, h.name, h.attr, l, l, m.of.name, m.of.attr, m.mode)
	case ReservedName:
		b, l := g.base[g.r.Intn(len(g.base))], g.level()
		rel := fmt.Sprintf("mlrel_%s_%s", b.name, l)
		return []string{
			fmt.Sprintf("%s(w%d, %s, planted, %s).", rel, n, b.attr, l), // a cell planted at l
			fmt.Sprintf("leak%d(V) :- %s(K, A, V, C).", n, rel),         // copied out
		}[g.r.Intn(2)]
	case Dominate:
		return fmt.Sprintf("%s(%s, %s).", multilog.DominatePred, g.level(), g.level())
	default:
		return ""
	}
	if !slices.Contains(g.base, h) && !slices.Contains(g.derived, h) {
		g.derived = append(g.derived, h) // later rules may read it
	}
	return src
}

// Probe is one query of a generated program, as source and parsed. Pred is
// the m-predicate a single goal reads ("" for a join or a Π goal), Level
// the level it fixes ("" for a level variable).
type Probe struct {
	Src, Pred string
	Level     lattice.Label
	Query     multilog.Query
}

// Probes builds the queries a campaign asks of db, whose lattice is poset:
// each m-predicate at a level variable and at each level of at, as an
// m-atom and in each built-in mode; three joins over the first two base
// predicates and the first derived one (one opening with an unbound derived
// goal, one ending in a '!='); each Π predicate a Π rule defines; and a
// belief in each user mode.
func Probes(db *multilog.Database, poset *lattice.Poset, at ...lattice.Label) []Probe {
	g := newGen(nil, poset)
	g.learn(db)
	var out []Probe
	all := append(slices.Clone(g.base), g.derived...)
	slices.SortFunc(all, func(a, b pred) int { return strings.Compare(a.name, b.name) })
	for _, p := range all {
		for _, l := range append([]lattice.Label{""}, at...) {
			for _, m := range []string{"", " << fir", " << opt", " << cau"} {
				out = append(out, Probe{Src: fmt.Sprintf("%s[%s(K: %s -C-> V)]%s", cmp.Or(string(l), "L"), p.name, p.attr, m), Pred: p.name, Level: l})
			}
		}
	}
	b0, b1 := g.base[0], g.base[min(1, len(g.base)-1)]
	goals := []string{fmt.Sprintf("L[%s(K: %s -C-> V)], M[%s(K2: %s -D-> V)] << cau, K != K2", b0.name, b0.attr, b1.name, b1.attr)}
	if len(g.derived) > 0 {
		d := g.derived[0]
		goals = append(goals, fmt.Sprintf("M[%s(K: %s -D-> W)], L[%s(K: %s -C-> v1)]", d.name, d.attr, b0.name, b0.attr),
			fmt.Sprintf("L[%s(K: %s -C-> V)], M[%s(K: %s -D-> W)]", b0.name, b0.attr, d.name, d.attr))
	}
	seen := map[string]bool{}
	for _, c := range db.Pi {
		if h := c.Head.P; !c.IsFact() && !seen[h.Pred] {
			seen[h.Pred] = true
			vars := make([]string, h.Arity())
			for i := range vars {
				vars[i] = fmt.Sprintf("X%d", i)
			}
			goals = append(goals, fmt.Sprintf("%s(%s)", h.Pred, strings.Join(vars, ", ")))
		}
	}
	for _, m := range g.modes {
		goals = append(goals, fmt.Sprintf("L[%s(K: %s -C-> V)] << %s", m.of.name, m.of.attr, m.mode))
	}
	for _, q := range goals {
		out = append(out, Probe{Src: q})
	}
	for i := range out {
		q, err := multilog.ParseGoals(out[i].Src)
		if err != nil {
			//vet:allow nopanic -- a malformed probe is a generator bug
			panic(fmt.Sprintf("workload: bad probe %q: %v", out[i].Src, err))
		}
		out[i].Query = q
	}
	return out
}
