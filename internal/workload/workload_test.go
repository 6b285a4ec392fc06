package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/belief"
	"repro/internal/lattice"
	"repro/internal/lint"
	"repro/internal/multilog"
)

func TestLatticeShapes(t *testing.T) {
	for _, shape := range []LatticeShape{ShapeChain, ShapeDiamond, ShapeDAG, ShapeProduct} {
		for _, n := range []int{2, 4, 7, 16} {
			p := Lattice(shape, n, 42)
			if err := p.Validate(); err != nil {
				t.Fatalf("%s/%d: %v", shape, n, err)
			}
			if p.Len() < 2 {
				t.Errorf("%s/%d: too few levels (%d)", shape, n, p.Len())
			}
		}
	}
	if !Lattice(ShapeChain, 8, 0).IsTotalOrder() {
		t.Error("chain must be a total order")
	}
	if Lattice(ShapeDiamond, 7, 0).IsTotalOrder() {
		t.Error("diamond must have incomparable levels")
	}
	if !Lattice(ShapeDiamond, 7, 0).IsLattice() {
		t.Error("diamond towers must be lattices")
	}
	if p := Lattice(ShapeProduct, 6, 0); !p.IsLattice() || p.IsTotalOrder() || p.Len() != 6 {
		t.Error("a product of chains must be a lattice of six levels, and not a chain")
	}
}

func TestLatticeShapeNames(t *testing.T) {
	if ShapeChain.String() != "chain" || ShapeDiamond.String() != "diamond" || ShapeDAG.String() != "dag" || ShapeProduct.String() != "product" {
		t.Error("shape names broken")
	}
}

func TestRelationGeneratorIntegrity(t *testing.T) {
	for _, shape := range []LatticeShape{ShapeChain, ShapeDiamond} {
		p := Lattice(shape, 7, 1)
		rel := Relation(RelationConfig{Poset: p, Attrs: 3, Keys: 50, PolyRate: 0.4, Seed: 7})
		if err := rel.CheckIntegrity(); err != nil {
			t.Fatalf("%s: generated relation violates integrity: %v", shape, err)
		}
		if rel.Len() < 50 {
			t.Errorf("%s: expected ≥ 50 tuples, got %d", shape, rel.Len())
		}
	}
}

func TestRelationPolyRate(t *testing.T) {
	p := Lattice(ShapeChain, 4, 2)
	none := Relation(RelationConfig{Poset: p, Keys: 100, PolyRate: 0, Seed: 3})
	if none.Len() != 100 {
		t.Errorf("poly-rate 0 should yield exactly one tuple per key, got %d", none.Len())
	}
	lots := Relation(RelationConfig{Poset: p, Keys: 100, PolyRate: 1, Seed: 3})
	if lots.Len() <= 110 {
		t.Errorf("poly-rate 1 should polyinstantiate most keys, got %d tuples", lots.Len())
	}
}

func TestRelationDeterministic(t *testing.T) {
	p := Lattice(ShapeChain, 4, 2)
	a := Relation(RelationConfig{Poset: p, Keys: 30, PolyRate: 0.5, Seed: 9})
	b := Relation(RelationConfig{Poset: p, Keys: 30, PolyRate: 0.5, Seed: 9})
	if a.Render() != b.Render() {
		t.Error("same seed must generate the same relation")
	}
}

func TestGeneratedRelationSupportsBeliefModes(t *testing.T) {
	p := Lattice(ShapeChain, 4, 2)
	rel := Relation(RelationConfig{Poset: p, Keys: 40, PolyRate: 0.5, Seed: 11})
	top := p.Maximal()[0]
	for _, m := range []belief.Mode{belief.Firm, belief.Optimistic, belief.Cautious} {
		if _, err := belief.BetaModels(rel, top, m); err != nil {
			t.Errorf("mode %s failed on generated relation: %v", m, err)
		}
	}
}

func TestProgramSourceParsesAndEvaluates(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		src := ProgramSource(ProgramConfig{Levels: 4, Facts: 12, Rules: 4, Preds: 3, Seed: seed})
		db, err := multilog.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: unparsable program: %v\n%s", seed, err, src)
		}
		top := Level(3)
		red, err := multilog.Reduce(db, top)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if _, err := red.Model(); err != nil {
			t.Fatalf("seed %d: generated program failed to evaluate: %v\n%s", seed, err, src)
		}
	}
}

func TestProgramSourceDeterministic(t *testing.T) {
	cfg := ProgramConfig{Levels: 3, Facts: 10, Rules: 3, Preds: 2, Seed: 5}
	if ProgramSource(cfg) != ProgramSource(cfg) {
		t.Error("same seed must generate the same program")
	}
}

// TestProgramSourcePinned holds ProgramSource's bytes for the configs the
// serve smoke (serveload -emit), the overload storm and chaos tests, the
// server benchmarks and tests, and the crash matrix load: each is pinned by
// its sha256, so a change to the generator that moves their programs fails
// here rather than as a drift in a benchmark or a test that reads them.
func TestProgramSourcePinned(t *testing.T) {
	for _, c := range []struct {
		cfg  ProgramConfig
		want string
	}{
		{ProgramConfig{Levels: 4, Facts: 300, Rules: 16, Preds: 4, Seed: 7, Poly: 0.3}, "8761824d5901d7d1"},  // serve smoke
		{ProgramConfig{Levels: 4, Facts: 6000, Rules: 24, Preds: 6, Seed: 7, Poly: 0.3}, "e9769b0e24822176"}, // BenchmarkOverloadStorm
		{ProgramConfig{Levels: 4, Facts: 300, Rules: 12, Preds: 4, Seed: 7, Poly: 0.3}, "366191fe367fdcf3"},  // overload chaos
		{ProgramConfig{Levels: 5, Facts: 800, Rules: 40, Preds: 6, Seed: 7, Poly: 0.3}, "fed01ee33dbd4b6d"},  // server query benchmarks
		{ProgramConfig{Levels: 4, Facts: 200, Rules: 16, Preds: 6, Seed: 1, Poly: 0.3}, "526869cc6eef2dd9"},  // write benchmarks and write lint
		{ProgramConfig{Levels: 4, Facts: 2000, Rules: 16, Preds: 6, Seed: 1, Poly: 0.3}, "0cf8ef46f7652f42"}, // cached hits
		{ProgramConfig{Levels: 4, Facts: 24, Rules: 4, Preds: 3, Seed: 0, Poly: 0.3}, "3563a9b4950070c0"},    // staleness oracle
		{ProgramConfig{Levels: 3, Facts: 40, Rules: 4, Preds: 3, Seed: 7, Poly: 0.4}, "c797f63ddb9b2e9a"},    // crash and cluster chaos
	} {
		sum := sha256.Sum256([]byte(ProgramSource(c.cfg)))
		if got := hex.EncodeToString(sum[:8]); got != c.want {
			t.Errorf("ProgramSource(%+v) hashes to %s, want %s", c.cfg, got, c.want)
		}
	}
}

// TestGeneratedShapesAsDeclared: over every lattice shape, a program drawn
// from every monotone and non-monotone shape is lint-clean and reduces at
// every level, each of its rules is as monotone as its shape says, and a
// write of each hostile shape drawn against it is refused by lint ML009.
func TestGeneratedShapesAsDeclared(t *testing.T) {
	counts := map[ClauseShape]int{}
	for seed := int64(0); seed < 24; seed++ {
		prog := Generate(ProgramConfig{Lattice: LatticeShape(seed % 4), Levels: 3 + int(seed)%5, Facts: 16, Preds: 3, Rules: 6,
			Poly: 0.3, ClassBelow: true, Mix: MonotoneMix.With(NonMonotoneMix), Seed: seed})
		db, err := multilog.Parse(prog.Source)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, prog.Source)
		}
		if ds := lint.MultiLog(db, lint.Options{}); ds.HasErrors() {
			t.Fatalf("seed %d: generated program fails lint:\n%s\n%s", seed, ds, prog.Source)
		}
		for _, c := range prog.Clauses {
			counts[c.Shape]++
			one, err := multilog.Parse(c.Src)
			if err != nil {
				t.Fatal(err)
			}
			if got := multilog.MonotoneClause(one.Sigma[0], prog.Poset); got != c.Shape.Monotone() {
				t.Errorf("seed %d: %s clause %s: MonotoneClause says %v", seed, c.Shape, c.Src, got)
			}
		}
		for _, u := range prog.Poset.Labels() {
			red, err := multilog.Reduce(db, u)
			if err == nil {
				_, err = red.Model()
			}
			if err != nil {
				t.Fatalf("seed %d: no model at %s: %v\n%s", seed, u, err, prog.Source)
			}
		}
		w := DrawWrite(rand.New(rand.NewSource(seed)), db, prog.Poset, HostileMix, int(seed))
		counts[w.Shape]++
		written, err := multilog.Parse(prog.Source + w.Src)
		if err != nil {
			t.Fatal(err)
		}
		if ds := lint.MultiLog(written, lint.Options{}); !strings.Contains(ds.String(), "[ML009]") {
			t.Errorf("seed %d: the %s write %s is not refused with ML009:\n%s", seed, w.Shape, w.Src, ds)
		}
	}
	if missing := MonotoneMix.With(NonMonotoneMix).With(HostileMix).Report(t.Logf, counts); len(missing) > 0 {
		t.Errorf("shapes never drawn: %v (drawn: %v)", missing, counts)
	}
}

func TestLevelNaming(t *testing.T) {
	if Level(3) != lattice.Label("l3") {
		t.Errorf("Level(3) = %s", Level(3))
	}
}
