package datalog

import (
	"errors"
	"fmt"
	"maps"
	"testing"

	"repro/internal/term"
)

// matchStores returns p/3 as a flat and as a delta relation, each with and
// without argument indexes: p(a, b_i, e) for i < n, then p(c, c, e).
func matchStores(t testing.TB, n int) map[string]*Store {
	t.Helper()
	out := map[string]*Store{}
	for _, indexing := range []bool{true, false} {
		flat := NewStoreNoIndex()
		if indexing {
			flat = NewStore()
		}
		// The delta's base holds a spare tuple it retracts and lacks the
		// last p(a, b_i, e), which it adds.
		base := NewStoreNoIndex()
		if indexing {
			base = NewStore()
		}
		for i := 0; i < n; i++ {
			a := NewAtom("p", term.Const("a"), term.Const(fmt.Sprintf("b%d", i)), term.Const("e"))
			flat.Insert(a) //nolint:errcheck // ground
			if i < n-1 {
				base.Insert(a) //nolint:errcheck // ground
			}
		}
		last := NewAtom("p", term.Const("a"), term.Const(fmt.Sprintf("b%d", n-1)), term.Const("e"))
		spare := NewAtom("p", term.Const("spare"), term.Const("x"), term.Const("y"))
		cc := NewAtom("p", term.Const("c"), term.Const("c"), term.Const("e"))
		flat.Insert(cc)    //nolint:errcheck // ground
		base.Insert(spare) //nolint:errcheck // ground
		base.Insert(cc)    //nolint:errcheck // ground
		// A shared relation of flatCopyBelow tuples or more becomes a delta
		// at its first write; a smaller one is made one here.
		delta := base.Clone()
		if r := delta.rel("p"); r.size() < flatCopyBelow {
			delta.put("p", &relation{base: r, seen: map[string]int{}, index: map[int]map[string][]int{}})
		}
		delta.Remove(spare)
		delta.Insert(last) //nolint:errcheck // ground
		if delta.rel("p").base == nil {
			t.Fatalf("the delta store's relation of %d tuples is flat", delta.rel("p").size())
		}
		if flat.rel("p").base != nil {
			t.Fatal("the flat store's relation is a delta")
		}
		suffix := ""
		if !indexing {
			suffix = "/noindex"
		}
		out["flat"+suffix], out["delta"+suffix] = flat, delta
	}
	return out
}

func sameSubst(a, b term.Subst) bool { return maps.EqualFunc(a, b, term.Term.Equal) }

func p3(x, y, z term.Term) Atom { return NewAtom("p", x, y, z) }

// TestMatchRestoresBindings pins the trail contract of Store.Match: however
// it returns — every candidate failing, a candidate failing after it bound a
// variable, fn stopping early, a nested Match inside fn — the substitution it
// was given is as it was, and fn saw each answer's bindings. The same holds
// for solveBody across an '=' literal.
func TestMatchRestoresBindings(t *testing.T) {
	X, Y, Z, W := term.Var("X"), term.Var("Y"), term.Var("Z"), term.Var("W")
	a, e := term.Const("a"), term.Const("e")
	cases := []struct {
		name  string
		query Atom
		stop  bool // fn stops at the first answer
		want  int  // answers fn sees
	}{
		// Each candidate binds Y to its second argument, then fails on the
		// third (the scan also tries p(c, c, e)).
		{"all-fail/indexed", p3(a, Y, Y), false, 0},
		{"all-fail/scan", p3(X, Y, Y), false, 0},
		// p(a, b_i, e) binds X to a, then fails on b_i: only p(c, c, e).
		{"halfway/indexed", p3(X, X, e), false, 1},
		{"halfway/scan", p3(X, X, Z), false, 1},
		{"stop/indexed", p3(a, Y, Z), true, 1},
		{"stop/scan", p3(X, Y, Z), true, 1},
		{"every/indexed", p3(X, Y, e), false, 41},
		{"every/scan", p3(X, Y, Z), false, 41},
	}
	for name, st := range matchStores(t, 40) {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				base := term.Subst{"W": term.Const("w")}
				before := base.Clone()
				got := 0
				st.Match(tc.query, base, func(s term.Subst) bool {
					got++
					if !tc.query.Apply(s).IsGround() || !s.Lookup(W).Equal(term.Const("w")) {
						t.Errorf("fn sees %s under %v", tc.query.Apply(s), s)
					}
					return !tc.stop
				})
				if got != tc.want {
					t.Errorf("fn saw %d answers, want %d", got, tc.want)
				}
				if !sameSubst(base, before) {
					t.Errorf("after Match the substitution is %v, want %v", base, before)
				}
			})
		}
		t.Run(name+"/nested", func(t *testing.T) {
			base := term.Subst{"W": term.Const("w")}
			before := base.Clone()
			pairs := 0
			st.Match(p3(X, Y, Z), base, func(s term.Subst) bool {
				inner := s.Clone()
				// Every tuple whose third argument is the outer one's.
				st.Match(p3(term.Var("X2"), term.Var("Y2"), Z), s, func(term.Subst) bool {
					pairs++
					return pairs%7 != 0 // stop some inner scans early
				})
				if !sameSubst(s, inner) {
					t.Errorf("after the nested Match the substitution is %v, want %v", s, inner)
				}
				return true
			})
			if pairs == 0 {
				t.Error("the nested Match saw no pair")
			}
			if !sameSubst(base, before) {
				t.Errorf("after Match the substitution is %v, want %v", base, before)
			}
		})
		t.Run(name+"/solveBody", func(t *testing.T) {
			// h(X, W) :- p(X, Y, Z), W = Y, W != b3.
			c := Clause{Head: NewAtom("h", X, W), Body: []Literal{
				{Atom: p3(X, Y, Z)},
				{Atom: NewAtom(BuiltinEq, W, Y)},
				{Atom: NewAtom(BuiltinNeq, W, term.Const("b3"))},
			}}
			s0 := term.Subst{"Q": term.Const("q")}
			before := s0.Clone()
			heads := map[string]bool{}
			err := solveBody(nil, c, -1, s0, storeView{live: st}, func(s term.Subst) error {
				heads[c.Head.Apply(s).Key()] = true
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(heads) != 40 { // 41 tuples, less W = b3
				t.Errorf("solveBody derived %d heads, want 40", len(heads))
			}
			if !sameSubst(s0, before) {
				t.Errorf("after solveBody the substitution is %v, want %v", s0, before)
			}
			// An emit that stops the enumeration leaves it as well.
			stop := errors.New("stop")
			if err := solveBody(nil, c, -1, s0, storeView{live: st}, func(term.Subst) error { return stop }); err != stop {
				t.Fatalf("solveBody returned %v, want the emit's error", err)
			}
			if !sameSubst(s0, before) {
				t.Errorf("after a stopped solveBody the substitution is %v, want %v", s0, before)
			}
		})
	}
}

// TestMatchAllocsFlatInCandidates: a Store.Match whose fn does nothing
// allocates over 1000 candidates at most 1.25x what it does over 10, on the
// scan and the indexed path of a flat and of a delta relation — the
// candidates bind into the caller's substitution and are undone, instead of
// each getting a copy of it.
func TestMatchAllocsFlatInCandidates(t *testing.T) {
	queries := map[string]Atom{
		"indexed": p3(term.Const("a"), term.Var("Y"), term.Var("Z")),
		"scan":    p3(term.Var("X"), term.Var("Y"), term.Var("Z")),
	}
	allocs := func(n int, name, path string) float64 {
		st := matchStores(t, n)[name]
		q, base := queries[path], term.Subst{}
		return testing.AllocsPerRun(50, func() {
			st.Match(q, base, func(term.Subst) bool { return true })
		})
	}
	for _, name := range []string{"flat", "delta"} {
		for _, path := range []string{"scan", "indexed"} {
			small, large := allocs(10, name, path), allocs(1000, name, path)
			t.Logf("allocations per match, %s %s: %.0f at 10 candidates, %.0f at 1000",
				name, path, small, large)
			if large > 1.25*small {
				t.Errorf("%s %s: a match over 1000 candidates allocates %.0f, over 10 %.0f: more than 1.25x",
					name, path, large, small)
			}
		}
	}
}
