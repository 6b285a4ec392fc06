package datalog

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/term"
)

// storeImage is everything a reader can observe of a counting store: the
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

// TestCloneCopyOnWriteUnderReaders is the aliasing invariant of copy-on-write
// relations, meant for -race: readers keep matching on an engine's model
// while the next engine in a chain of clones is cloned from it and patched.
// After every step the source is exactly what it was (facts, index lookups,
// base counts), and the patched clone equals an engine built from scratch
// (model and Counts).
func TestCloneCopyOnWriteUnderReaders(t *testing.T) {
	steps := 200
	if testing.Short() {
		steps = 60
	}
	rs, cur := newRefState(t, `
		reach(X) :- start(X).
		reach(Y) :- reach(X), e(X, Y).
		unreached(X) :- node(X), not reach(X).
		two(X, Z) :- e(X, Y), e(Y, Z).
		node(a). node(b). node(c). node(d). node(e). start(a).
		e(a, b). e(b, c).
	`)
	r := rand.New(rand.NewSource(14))
	consts := []string{"a", "b", "c", "d", "e"}
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
		_, err := next.ApplyDelta(adds, dels)
		close(stop)
		readers.Wait()
		if err != nil {
			t.Fatalf("step %d: ApplyDelta(+%v, -%v): %v", step, adds, dels, err)
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
		cur = next
	}
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
		if c.rels[pred] != s.rels[pred] {
			t.Fatalf("clone copied %s eagerly", pred)
		}
	}
	if added, _ := c.Insert(atoms(t, "p(a)")[0]); added {
		t.Fatal("duplicate insert reported new")
	}
	if c.Remove(atoms(t, "p(zzz)")[0]) {
		t.Fatal("removed an absent fact")
	}
	if c.rels["p"] != s.rels["p"] {
		t.Fatal("a write that changed nothing copied the relation")
	}
	if _, err := c.Insert(atoms(t, "p(c)")[0]); err != nil {
		t.Fatal(err)
	}
	c.Remove(atoms(t, "q(a)")[0])
	if c.rels["p"] == s.rels["p"] || c.rels["q"] != nil {
		t.Fatal("writes through the clone did not replace its relations")
	}
	if c.rels["r"] != s.rels["r"] {
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
		t.Fatalf("Clone of a 32-relation store made %v allocations; want a handful (the store and its map)", small)
	}
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
	fact := []Atom{NewAtom("base7", term.Const("fresh"), term.Const("v0"))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := inc.Clone()
		if _, err := next.ApplyDelta(fact, nil); err != nil {
			b.Fatal(err)
		}
		cloneSink = next.Model()
	}
}
