// Package workload generates deterministic (seeded) synthetic inputs for
// the benchmark harness: security lattices of several shapes, multilevel
// relations with controlled size and polyinstantiation rate, MultiLog
// databases, and query mixes. The paper has no quantitative evaluation of
// its own (§8 lists "a comparison with existing relational MLS
// implementations" as future work), so these generators define the
// distributions behind the P1-P6 experiments in EXPERIMENTS.md.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/lattice"
	"repro/internal/mls"
)

// LatticeShape selects a lattice generator.
type LatticeShape int

const (
	// ShapeChain is a total order l0 < l1 < ... (the U/C/S/T setting).
	ShapeChain LatticeShape = iota
	// ShapeDiamond stacks 4-point diamonds: maximal incomparability with
	// a lattice guarantee.
	ShapeDiamond
	// ShapeDAG is a random layered DAG poset (not necessarily a lattice),
	// exercising the multiple-model paths.
	ShapeDAG
	// ShapeProduct is the product of the chain l0 < l1 with a chain of n/2
	// levels: a lattice whose middle levels pair up incomparably.
	ShapeProduct
)

// String names the shape for benchmark labels.
func (s LatticeShape) String() string {
	switch s {
	case ShapeChain:
		return "chain"
	case ShapeDiamond:
		return "diamond"
	case ShapeDAG:
		return "dag"
	case ShapeProduct:
		return "product"
	}
	return "?"
}

// Level returns the i-th generated level name.
func Level(i int) lattice.Label { return lattice.Label(fmt.Sprintf("l%d", i)) }

// Lattice builds a poset of about n levels in the given shape. The result
// is validated; for chain, diamond and product it is also a lattice.
func Lattice(shape LatticeShape, n int, seed int64) *lattice.Poset {
	if n < 2 {
		n = 2
	}
	p := lattice.New()
	switch shape {
	case ShapeChain:
		for i := 0; i+1 < n; i++ {
			mustOrder(p, Level(i), Level(i+1))
		}
	case ShapeDiamond:
		// A tower of diamonds: bottom, pairs of incomparable mids, tops.
		// Levels: 0 (bottom), then groups of (left, right, top).
		prevTop := Level(0)
		p.Add(prevTop)
		i := 1
		for i+2 < n {
			left, right, top := Level(i), Level(i+1), Level(i+2)
			mustOrder(p, prevTop, left)
			mustOrder(p, prevTop, right)
			mustOrder(p, left, top)
			mustOrder(p, right, top)
			prevTop = top
			i += 3
		}
		for ; i < n; i++ {
			mustOrder(p, prevTop, Level(i))
			prevTop = Level(i)
		}
	case ShapeProduct:
		// Level i*w+j is the pair (i, j).
		w := n / 2
		for i := 0; i < 2; i++ {
			for j := 0; j < w; j++ {
				p.Add(Level(i*w + j))
				if j > 0 {
					mustOrder(p, Level(i*w+j-1), Level(i*w+j))
				}
				if i > 0 {
					mustOrder(p, Level(j), Level(w+j))
				}
			}
		}
	case ShapeDAG:
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			p.Add(Level(i))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n && j <= i+4; j++ {
				if r.Intn(3) == 0 {
					mustOrder(p, Level(i), Level(j))
				}
			}
		}
		// Keep the poset connected enough to be interesting.
		for i := 0; i+1 < n; i++ {
			if len(p.Covers(Level(i))) == 0 {
				mustOrder(p, Level(i), Level(i+1))
			}
		}
	}
	if err := p.Validate(); err != nil {
		panic(err) //vet:allow nopanic -- generators only emit acyclic edges
	}
	return p
}

func mustOrder(p *lattice.Poset, lo, hi lattice.Label) {
	if err := p.AddOrder(lo, hi); err != nil {
		panic(err)
	}
}

// RelationConfig controls the relation generator.
type RelationConfig struct {
	Name     string
	Poset    *lattice.Poset
	Attrs    int     // data attributes beyond the key (≥ 1)
	Keys     int     // distinct entities
	PolyRate float64 // fraction of entities with a polyinstantiated sibling
	Seed     int64
}

// Relation generates a multilevel relation: each entity gets a base tuple
// at a random level; with probability PolyRate a higher-level sibling
// polyinstantiates one attribute (the Figure 1 pattern). All integrity
// properties hold by construction.
func Relation(cfg RelationConfig) *mls.Relation {
	if cfg.Name == "" {
		cfg.Name = "r"
	}
	if cfg.Attrs < 1 {
		cfg.Attrs = 2
	}
	attrs := make([]string, cfg.Attrs+1)
	attrs[0] = "id"
	for i := 1; i <= cfg.Attrs; i++ {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	scheme, err := mls.NewScheme(cfg.Name, cfg.Poset, attrs...)
	if err != nil {
		panic(err) //vet:allow nopanic -- generated scheme is well-formed by construction
	}
	rel := mls.NewRelation(scheme)
	r := rand.New(rand.NewSource(cfg.Seed))
	levels := cfg.Poset.Labels()
	for k := 0; k < cfg.Keys; k++ {
		key := fmt.Sprintf("k%d", k)
		base := levels[r.Intn(len(levels))]
		vals := make([]mls.Value, len(attrs))
		vals[0] = mls.V(key, base)
		for i := 1; i < len(attrs); i++ {
			vals[i] = mls.V(fmt.Sprintf("v%d_%d", k, i), base)
		}
		rel.MustInsert(mls.Tuple{Values: vals})
		if r.Float64() < cfg.PolyRate {
			ups := cfg.Poset.UpSet(base)
			if len(ups) > 1 {
				hi := ups[1+r.Intn(len(ups)-1)]
				pv := append([]mls.Value(nil), vals...)
				ai := 1 + r.Intn(cfg.Attrs)
				pv[ai] = mls.V(fmt.Sprintf("cover%d_%d", k, ai), hi)
				rel.MustInsert(mls.Tuple{Values: pv, TC: hi})
			}
		}
	}
	return rel
}

// ProgramConfig controls the MultiLog program generator (Generate).
type ProgramConfig struct {
	Lattice LatticeShape // ShapeChain unless set
	Levels  int          // levels of the lattice (at least 2)
	Facts   int          // m-facts over the base predicates p0, p1, …
	Rules   int          // rules drawn from Mix
	Preds   int          // base predicates (at least 1)
	Seed    int64
	// Poly is the probability that a generated fact also gets a
	// polyinstantiated sibling at a strictly higher level with a different
	// value (the Figure 1 cover-story pattern), so the cautious and
	// optimistic belief modes have real conflicts to adjudicate. Zero
	// keeps the generator's historical random stream unchanged.
	Poly float64
	// ClassBelow classifies each fact at a level drawn at or below its own
	// instead of at its own.
	ClassBelow bool
	// Mix weighs the shapes the rules are drawn from; nil draws ConstantLevel
	// rules alone.
	Mix Mix
}

// ProgramSource generates a seeded, admissible, level-stratified MultiLog
// program, as MultiLog source text: Generate's program. Over a chain and
// with ConstantLevel rules alone, rule heads sit at a level strictly above
// their body belief levels, so the reduction always stratifies, and
// predicate dependencies are acyclic so the operational prover terminates.
func ProgramSource(cfg ProgramConfig) string { return Generate(cfg).Source }
