package datalog

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/term"
)

// storeImage is everything a reader can observe of a store: the
// fact set per predicate, what each single-argument index lookup returns,
// and the base counts.
type storeImage struct {
	Facts   map[string][]string
	Lookups map[string][]string
	Counts  map[string]int
}

func imageOf(s *Store) storeImage {
	img := storeImage{Facts: map[string][]string{}, Lookups: map[string][]string{}, Counts: s.supports()}
	for _, pred := range s.Preds() {
		for _, f := range s.Facts(pred) {
			img.Facts[pred] = append(img.Facts[pred], f.Key())
			// One indexed probe per argument: bind position i, free the rest.
			for i, arg := range f.Args {
				q := Atom{Pred: pred, Args: make([]term.Term, len(f.Args))}
				for j := range q.Args {
					q.Args[j] = term.Var(fmt.Sprintf("X%d", j))
				}
				q.Args[i] = arg
				name := fmt.Sprintf("%s/%d=%s", pred, i, arg.Key())
				if _, done := img.Lookups[name]; done {
					continue
				}
				hits := []string{}
				s.Match(q, term.Subst{}, func(sub term.Subst) bool {
					hits = append(hits, q.Apply(sub).Key())
					return true
				})
				sort.Strings(hits)
				img.Lookups[name] = hits
			}
		}
		sort.Strings(img.Facts[pred])
	}
	return img
}

// checkFlatBases fails the test unless every delta relation of s sits on a
// flat, frozen base.
func checkFlatBases(t *testing.T, s *Store) {
	t.Helper()
	for _, pred := range s.Preds() {
		if r := s.rel(pred); r.base != nil && (r.base.base != nil || r.base.stamp == s.stamp) {
			t.Fatalf("relation %s is a delta over a delta, or over an unfrozen base", pred)
		}
	}
}

// TestCloneCopyOnWriteUnderReaders is the aliasing invariant of copy-on-write
// relations, meant for -race: readers keep matching on an engine's model
// while the next engine in a chain of clones is cloned from it and patched.
// After every step the source is exactly what it was (facts, index lookups,
// base counts), and the patched clone equals an engine built from scratch
// (model and Counts). The edge relation and the two derived from it are large
// enough to be written as deltas, and the chain long enough that they fold
// several times; a delta that reached a clone by reference instead of by copy
// changes the source here.
func TestCloneCopyOnWriteUnderReaders(t *testing.T) {
	steps := 200
	if testing.Short() {
		steps = 60
	}
	consts := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	prog := `
		reach(X) :- start(X).
		reach(Y) :- reach(X), e(X, Y).
		unreached(X) :- node(X), not reach(X).
		two(X, Z) :- e(X, Y), e(Y, Z).
		start(a).
	`
	for i, c := range consts {
		prog += fmt.Sprintf("node(%s). ", c)
		for j := 0; j < 5; j++ {
			prog += fmt.Sprintf("e(%s, %s). ", c, consts[(i+j*3+1)%len(consts)])
		}
	}
	rs, cur := newRefState(t, prog)
	r := rand.New(rand.NewSource(14))
	present := map[string]Atom{}
	for _, f := range cur.Model().Facts("e") {
		present[f.Key()] = f
	}
	queries := []Atom{
		NewAtom("e", term.Var("X"), term.Var("Y")),
		NewAtom("e", term.Const("a"), term.Var("Y")),
		NewAtom("reach", term.Var("X")),
		NewAtom("two", term.Var("X"), term.Const("c")),
		NewAtom("unreached", term.Var("X")),
	}
	folds := 0
	for step := 0; step < steps; step++ {
		src := cur
		before := imageOf(src.Model())

		stop := make(chan struct{})
		var readers sync.WaitGroup
		for g := 0; g < 2; g++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, q := range queries {
						src.Model().Match(q, term.Subst{}, func(term.Subst) bool { return true })
						_ = src.Model().Facts(q.Pred)
					}
				}
			}()
		}

		var adds, dels []Atom
		for j, n := 0, 1+r.Intn(3); j < n; j++ {
			if len(present) > 0 && r.Intn(3) == 0 {
				keys := make([]string, 0, len(present))
				for k := range present {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				k := keys[r.Intn(len(keys))]
				dels = append(dels, present[k])
				delete(present, k)
			} else {
				a := NewAtom("e", term.Const(consts[r.Intn(len(consts))]), term.Const(consts[r.Intn(len(consts))]))
				adds = append(adds, a)
				present[a.Key()] = a
			}
		}
		next := src.Clone()
		_, err := next.ApplyClauses(context.Background(), facts(adds), facts(dels))
		close(stop)
		readers.Wait()
		if err != nil {
			t.Fatalf("step %d: ApplyClauses(+%v, -%v): %v", step, adds, dels, err)
		}

		if after := imageOf(src.Model()); !reflect.DeepEqual(after, before) {
			t.Fatalf("step %d: patching the clone changed its source (+%v -%v)\nbefore: %+v\nafter:  %+v",
				step, adds, dels, before, after)
		}
		rs.apply(adds, dels)
		refModel, fresh := rs.full(t)
		if got, want := next.Model().String(), refModel.String(); got != want {
			t.Fatalf("step %d: clone diverges from a fresh evaluation (+%v -%v)\ngot:\n%s\nwant:\n%s", step, adds, dels, got, want)
		}
		if got, want := next.Counts(), fresh.Counts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: clone counts diverge from a fresh engine (+%v -%v)\ngot:  %v\nwant: %v", step, adds, dels, got, want)
		}
		checkFlatBases(t, next.Model())
		if was, is := src.Model().rel("two"), next.Model().rel("two"); was != nil && is != nil && was.base != nil && is.base == nil {
			folds++
		}
		cur = next
	}
	t.Logf("the derived relation two folded %d times in %d steps", folds, steps)
	if folds < 3 {
		t.Fatalf("the derived relation two folded %d times in %d steps, want several", folds, steps)
	}
}

// deltaStore returns a store holding one relation r of n binary tuples,
// r(k<i>, v<i%7>), as a flat base frozen by a clone, and the clone.
func deltaStore(tb testing.TB, n int) (src, clone *Store) {
	tb.Helper()
	src = wideStore(tb, 1, n)
	return src, src.Clone()
}

func rAtom(key, val string) Atom { return NewAtom("r0", term.Const(key), term.Const(val)) }

// TestDeltaRelationFolds walks one relation through random writes in a chain
// of clones and checks, at every step, the delta rules: a write to a shared
// flat relation of flatCopyBelow tuples or more makes a delta over it, a
// delta's base is flat and frozen, it holds exactly the changes written since
// its base, it folds at the write that finds it at FoldAt(|base|) changes,
// and folding it then yields the same facts, index lookups and counts.
func TestDeltaRelationFolds(t *testing.T) {
	_, s := deltaStore(t, 100)
	if got := FoldAt(100); got != 20 {
		t.Fatalf("FoldAt(100) = %d, want 2√100 = 20", got)
	}
	if got := FoldAt(10); got != 8 {
		t.Fatalf("FoldAt(10) = %d, want the floor 8", got)
	}
	r := rand.New(rand.NewSource(22))
	folds := 0
	for step := 0; step < 400; step++ {
		before := s.rel("r0")
		key := fmt.Sprintf("k%d", r.Intn(130)) // some present, some not
		switch r.Intn(3) {
		case 0:
			s.Insert(rAtom(key, "v0")) //nolint:errcheck // ground
		case 1:
			s.Remove(rAtom(key, fmt.Sprintf("v%d", r.Intn(7))))
		default:
			s.setSupport("r0", rAtom(key, "v0").Key(), 1+r.Intn(3))
		}
		after := s.rel("r0")
		if after == nil {
			t.Fatal("the relation emptied")
		}
		checkFlatBases(t, s)
		switch {
		case after == before:
		case before.base != nil && before.changes() >= FoldAt(len(before.base.facts)):
			if after.base != nil {
				t.Fatalf("step %d: a delta of %d changes over %d tuples did not fold", step, before.changes(), len(before.base.facts))
			}
			folds++
		case before.base != nil && after.base == nil:
			t.Fatalf("step %d: a delta of %d changes over %d tuples folded early", step, before.changes(), len(before.base.facts))
		case after.base == nil && before.stamp != s.stamp && len(before.facts) >= flatCopyBelow:
			t.Fatalf("step %d: a shared relation of %d tuples was copied whole", step, len(before.facts))
		}
		if after.base != nil {
			folded := NewStore()
			folded.put("r0", after.fold(true))
			if got, want := imageOf(folded), imageOf(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: the fold differs from the delta\nfolded: %+v\ndelta:  %+v", step, got, want)
			}
		}
		if step%25 == 24 { // a new generation: freeze this one behind a clone
			s = s.Clone()
		}
	}
	t.Logf("%d folds in 400 writes", folds)
	if folds < 5 {
		t.Fatalf("%d folds in 400 writes, want several", folds)
	}
}

// TestDeltaRelationEdgeCases pins the writes a delta must represent exactly:
// a base tuple removed and its key inserted again, a base tuple's count
// overridden and read back, and every tuple of a delta's relation removed.
func TestDeltaRelationEdgeCases(t *testing.T) {
	t.Run("tombstone then re-insert", func(t *testing.T) {
		src, s := deltaStore(t, 64)
		a := rAtom("k5", "v5")
		if !s.Remove(a) || s.Contains(a) {
			t.Fatal("remove through a delta failed")
		}
		if added, err := s.Insert(a); err != nil || !added {
			t.Fatalf("re-insert: added=%v err=%v", added, err)
		}
		d := s.rel("r0")
		if d.base == nil || len(d.dead) != 1 || len(d.facts) != 1 {
			t.Fatalf("want a delta of one tombstone and one added tuple, got base=%v dead=%v added=%v", d.base != nil, d.dead, d.facts)
		}
		if !reflect.DeepEqual(imageOf(s), imageOf(src)) {
			t.Fatal("removing and re-inserting a tuple changed what the relation holds")
		}
		if added, _ := s.Insert(a); added {
			t.Fatal("a re-inserted tuple was inserted twice")
		}
	})
	t.Run("count override", func(t *testing.T) {
		src, s := deltaStore(t, 64)
		k := rAtom("k9", "v2").Key()
		s.setSupport("r0", k, 3)
		if n, ok := s.support("r0", k); !ok || n != 3 {
			t.Fatalf("support = %d, %v after overriding it to 3", n, ok)
		}
		if n, _ := src.support("r0", k); n != 0 {
			t.Fatalf("the override reached the base: %d", n)
		}
		if d := s.rel("r0"); d.base == nil || d.over[d.base.seen[k]] != 3 {
			t.Fatal("the override is not the delta's")
		}
		s.Remove(rAtom("k9", "v2"))
		s.Insert(rAtom("k9", "v2")) //nolint:errcheck // ground
		if n, _ := s.support("r0", k); n != 0 {
			t.Fatalf("a re-inserted tuple kept its removed predecessor's count %d", n)
		}
	})
	t.Run("every tuple removed", func(t *testing.T) {
		// Added tuples first, so removals reach both sides of the delta;
		// the delta folds on the way down, and the last removal empties a
		// flat relation.
		src, s := deltaStore(t, 40)
		extra := []Atom{rAtom("x1", "v0"), rAtom("x2", "v0")}
		for _, a := range extra {
			s.Insert(a) //nolint:errcheck // ground
		}
		for _, f := range append(extra, src.Facts("r0")...) {
			if !s.Remove(f) {
				t.Fatalf("remove %s failed", f)
			}
		}
		if s.rel("r0") != nil || s.Len() != 0 || s.Facts("r0") != nil {
			t.Fatalf("the emptied relation is still there: %d facts", s.Len())
		}
		if src.Len() != 40 {
			t.Fatalf("emptying the clone emptied its source to %d facts", src.Len())
		}
	})
}

// TestCloneSharesUntouchedRelations pins the sharing rule: a clone holds its
// source's relations themselves, a write replaces only the relation it
// touches, a write that changes nothing replaces none, and the source may
// keep writing too.
func TestCloneSharesUntouchedRelations(t *testing.T) {
	s := NewStore()
	for _, f := range atoms(t, "p(a)", "p(b)", "q(a)", "r(a)") {
		if _, err := s.Insert(f); err != nil {
			t.Fatal(err)
		}
	}
	c := s.Clone()
	for _, pred := range s.Preds() {
		if c.rel(pred) != s.rel(pred) {
			t.Fatalf("clone copied %s eagerly", pred)
		}
	}
	if added, _ := c.Insert(atoms(t, "p(a)")[0]); added {
		t.Fatal("duplicate insert reported new")
	}
	if c.Remove(atoms(t, "p(zzz)")[0]) {
		t.Fatal("removed an absent fact")
	}
	if c.rel("p") != s.rel("p") {
		t.Fatal("a write that changed nothing copied the relation")
	}
	if _, err := c.Insert(atoms(t, "p(c)")[0]); err != nil {
		t.Fatal(err)
	}
	c.Remove(atoms(t, "q(a)")[0])
	if c.rel("p") == s.rel("p") || c.rel("q") != nil {
		t.Fatal("writes through the clone did not replace its relations")
	}
	if c.rel("r") != s.rel("r") {
		t.Fatal("an untouched relation was copied")
	}
	if got := len(s.Facts("p")); got != 2 || !s.Contains(atoms(t, "q(a)")[0]) {
		t.Fatalf("the clone's writes reached the source: p has %d facts", got)
	}
	// The source is no owner either once cloned: its writes must not reach
	// the clone.
	if _, err := s.Insert(atoms(t, "r(b)")[0]); err != nil {
		t.Fatal(err)
	}
	if c.Contains(atoms(t, "r(b)")[0]) {
		t.Fatal("the source's write reached the clone")
	}
}

// wideStore builds a store of rels relations with perRel binary facts each.
func wideStore(tb testing.TB, rels, perRel int) *Store {
	tb.Helper()
	s := NewStore()
	for p := 0; p < rels; p++ {
		for i := 0; i < perRel; i++ {
			a := NewAtom(fmt.Sprintf("r%d", p), term.Const(fmt.Sprintf("k%d", i)), term.Const(fmt.Sprintf("v%d", i%7)))
			if _, err := s.Insert(a); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return s
}

// TestStoreCloneAllocatesPerRelation: cloning an N-tuple, R-relation store
// allocates O(R) — the same whatever N is.
func TestStoreCloneAllocatesPerRelation(t *testing.T) {
	var sink *Store
	allocs := func(perRel int) float64 {
		s := wideStore(t, 32, perRel)
		return testing.AllocsPerRun(20, func() { sink = s.Clone() })
	}
	small, large := allocs(10), allocs(1000)
	_ = sink
	if small != large {
		t.Fatalf("Clone allocations grow with the tuple count: %v at 320 tuples, %v at 32000", small, large)
	}
	if small > 16 {
		t.Fatalf("Clone of a 32-relation store made %v allocations; want a handful (the store and its slice of relations)", small)
	}
}

// TestStoreCloneAllocsFlatInRelations pins what a clone costs and what it
// shares. Clone allocates the same at 50 and at 5,000 relations: a slice of
// pointers and the store, with the slot map shared. A predicate a clone
// adds, and a slot it empties, are invisible to its source, and the reverse
// holds too, through every read; the first store to add a predicate copies
// the shared slot map and the other keeps it. A clone adding predicates
// while readers match its source is the -race case.
func TestStoreCloneAllocsFlatInRelations(t *testing.T) {
	allocs := func(rels int) float64 {
		s := wideStore(t, rels, 2)
		return testing.AllocsPerRun(20, func() { cloneSink = s.Clone() })
	}
	small, large := allocs(50), allocs(5000)
	t.Logf("allocations per clone: %.0f at 50 relations, %.0f at 5000", small, large)
	if small != large {
		t.Errorf("Clone allocates %.0f at 5000 relations, %.0f at 50", large, small)
	}

	unseen := func(s *Store, pred string) bool {
		return s.rel(pred) == nil && s.Facts(pred) == nil && !slices.Contains(s.Preds(), pred)
	}
	t.Run("a clone's new and emptied predicates", func(t *testing.T) {
		src := wideStore(t, 3, 2)
		img, n := imageOf(src), src.Len()
		c := src.Clone()
		if _, err := c.Insert(NewAtom("fresh", term.Const("a"))); err != nil {
			t.Fatal(err)
		}
		for _, f := range src.Facts("r1") {
			c.Remove(f)
		}
		if !unseen(c, "r1") || c.Len() != n-2+1 {
			t.Fatalf("the clone still holds r1, or holds %d facts", c.Len())
		}
		if !unseen(src, "fresh") || !reflect.DeepEqual(imageOf(src), img) || src.Len() != n {
			t.Fatal("the clone's writes reached its source")
		}
		if _, shared := src.ids["fresh"]; shared || !src.idsShared || c.idsShared {
			t.Fatal("the clone added a predicate to the slot map it shares")
		}
		// The slot r1 left is taken again by the predicate, not another one.
		if _, err := c.Insert(NewAtom("r1", term.Const("back"), term.Const("v"))); err != nil {
			t.Fatal(err)
		}
		if got := len(c.rels); got != 4 || c.Len() != n {
			t.Fatalf("the clone has %d slots and %d facts, want 4 and %d", got, c.Len(), n)
		}
	})
	t.Run("the source's new and emptied predicates", func(t *testing.T) {
		src := wideStore(t, 3, 2)
		c := src.Clone()
		img, n := imageOf(c), c.Len()
		if _, err := src.Insert(NewAtom("fresh", term.Const("a"))); err != nil {
			t.Fatal(err)
		}
		for _, f := range c.Facts("r2") {
			src.Remove(f)
		}
		if !unseen(src, "r2") || unseen(src, "fresh") {
			t.Fatal("the source's own writes are not its own")
		}
		if !unseen(c, "fresh") || !reflect.DeepEqual(imageOf(c), img) || c.Len() != n {
			t.Fatal("the source's writes reached its clone")
		}
		// The clone still holds the shared map, which the source left alone.
		if _, err := c.Insert(NewAtom("other", term.Const("a"))); err != nil {
			t.Fatal(err)
		}
		if unseen(c, "other") || !unseen(src, "other") || !unseen(c, "fresh") {
			t.Fatal("the two stores' new predicates crossed")
		}
	})
	t.Run("readers of the source", func(t *testing.T) {
		src := wideStore(t, 8, 40)
		img := imageOf(src)
		q := NewAtom("r3", term.Var("K"), term.Const("v2"))
		want := 0
		src.Match(q, term.Subst{}, func(term.Subst) bool { want++; return true })
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for g := 0; g < 2; g++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					got := 0
					src.Match(q, term.Subst{}, func(term.Subst) bool { got++; return true })
					if got != want || src.Contains(NewAtom("c0", term.Const("x"))) {
						t.Errorf("a reader of the source saw %d answers, want %d, or a clone's fact", got, want)
						return
					}
				}
			}()
		}
		c := src
		for i := 0; i < 200; i++ {
			c = c.Clone()
			if _, err := c.Insert(NewAtom(fmt.Sprintf("c%d", i), term.Const("x"))); err != nil {
				t.Error(err)
				break
			}
			c.Remove(NewAtom("r3", term.Const(fmt.Sprintf("k%d", i%40)), term.Const(fmt.Sprintf("v%d", i%40%7))))
		}
		close(stop)
		readers.Wait()
		if !reflect.DeepEqual(imageOf(src), img) {
			t.Fatal("a chain of clones changed its source")
		}
	})
}

var cloneSink *Store

// BenchmarkStoreClone prices Clone alone on a 64-relation, 64 000-tuple
// store.
func BenchmarkStoreClone(b *testing.B) {
	s := wideStore(b, 64, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = s.Clone()
	}
}

// BenchmarkIncrementalCloneApply prices what a fact write does to a prepared
// model: clone the engine, apply a one-fact delta. The model is a 64-relation
// fan-out of 500 tuples each; the delta touches one base relation and the one
// derived from it.
func BenchmarkIncrementalCloneApply(b *testing.B) {
	p := &Program{}
	for r := 0; r < 32; r++ {
		base, view := fmt.Sprintf("base%d", r), fmt.Sprintf("view%d", r)
		p.Add(Rule(NewAtom(view, term.Var("K"), term.Var("V")), Pos(NewAtom(base, term.Var("K"), term.Var("V")))))
		for i := 0; i < 500; i++ {
			p.Add(Fact(NewAtom(base, term.Const(fmt.Sprintf("k%d", i)), term.Const(fmt.Sprintf("v%d", i%7)))))
		}
	}
	inc, err := NewIncremental(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	fact := []Clause{Fact(NewAtom("base7", term.Const("fresh"), term.Const("v0")))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := inc.Clone()
		if _, err := next.ApplyClauses(context.Background(), fact, nil); err != nil {
			b.Fatal(err)
		}
		cloneSink = next.Model()
	}
}

// BenchmarkStoreWriteAfterClone prices one insert and one remove written to a
// clone of a relation of 320, 3,200 and 32,000 tuples. chain=false clones
// the flat source every time — a write to a relation at its first write since
// a fold, write_mix's every write; chain=true clones the last clone, so the
// delta grows by a tombstone and an added tuple per write and folds at
// FoldAt: the trade the fold rule makes between copying a delta per write and
// copying the base per fold.
func BenchmarkStoreWriteAfterClone(b *testing.B) {
	for _, n := range []int{320, 3200, 32000} {
		for _, chain := range []bool{false, true} {
			b.Run(fmt.Sprintf("tuples=%d/chain=%v", n, chain), func(b *testing.B) {
				src := wideStore(b, 1, n)
				facts := append([]Atom(nil), src.Facts("r0")...)
				added := func(i int) Atom { return rAtom(fmt.Sprintf("new%d", i), "v0") }
				s := src
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c := s.Clone()
					if _, err := c.Insert(added(i)); err != nil {
						b.Fatal(err)
					}
					victim := facts[i%n]
					if chain && i >= n {
						victim = added(i - n)
					}
					if !c.Remove(victim) {
						b.Fatalf("write %d: %s is not there to remove", i, victim)
					}
					if chain {
						s = c
					}
				}
				cloneSink = s
			})
		}
	}
}
