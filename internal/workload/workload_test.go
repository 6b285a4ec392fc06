package workload

import (
	"testing"

	"repro/internal/belief"
	"repro/internal/lattice"
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

func TestLevelNaming(t *testing.T) {
	if Level(3) != lattice.Label("l3") {
		t.Errorf("Level(3) = %s", Level(3))
	}
}
