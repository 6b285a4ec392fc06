package term

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstructorsAndAccessors(t *testing.T) {
	c := Const("mars")
	if c.Kind() != KindConst || c.Name() != "mars" || !c.IsGround() {
		t.Errorf("Const broken: %+v", c)
	}
	v := Var("X")
	if !v.IsVar() || v.IsGround() {
		t.Errorf("Var broken: %+v", v)
	}
	n := Null()
	if !n.IsNull() || !n.IsGround() {
		t.Errorf("Null broken: %+v", n)
	}
	f := Comp("pair", c, v)
	if f.Kind() != KindCompound || len(f.Args()) != 2 || f.IsGround() {
		t.Errorf("Comp broken: %+v", f)
	}
}

func TestStringAndKey(t *testing.T) {
	f := Comp("f", Const("a"), Var("X"), Null())
	if got := f.String(); got != "f(a, X, null)" {
		t.Errorf("String() = %q", got)
	}
	// A constant spelled like a variable must not collide in Key space.
	if Const("X").Key() == Var("X").Key() {
		t.Error("Key() must distinguish Const(X) from Var(X)")
	}
	if Const("null").Key() == Null().Key() {
		t.Error("Key() must distinguish Const(null) from ⊥")
	}
}

func TestEqual(t *testing.T) {
	a := Comp("f", Const("a"), Var("X"))
	b := Comp("f", Const("a"), Var("X"))
	if !a.Equal(b) {
		t.Error("structurally equal terms must be Equal")
	}
	if a.Equal(Comp("f", Const("a"), Var("Y"))) {
		t.Error("different variables must not be Equal")
	}
	if a.Equal(Comp("g", Const("a"), Var("X"))) {
		t.Error("different functors must not be Equal")
	}
}

func TestUnifyBasics(t *testing.T) {
	cases := []struct {
		a, b Term
		ok   bool
	}{
		{Const("a"), Const("a"), true},
		{Const("a"), Const("b"), false},
		{Var("X"), Const("a"), true},
		{Const("a"), Var("X"), true},
		{Var("X"), Var("Y"), true},
		{Null(), Null(), true},
		{Null(), Const("a"), false},
		{Comp("f", Var("X")), Comp("f", Const("a")), true},
		{Comp("f", Var("X")), Comp("g", Const("a")), false},
		{Comp("f", Var("X")), Comp("f", Const("a"), Const("b")), false},
	}
	for _, c := range cases {
		s := Subst{}
		if got := Unify(c.a, c.b, s); got != c.ok {
			t.Errorf("Unify(%s, %s) = %v, want %v", c.a, c.b, got, c.ok)
		}
	}
}

func TestUnifyProducesUnifier(t *testing.T) {
	s := Subst{}
	a := Comp("f", Var("X"), Comp("g", Var("X")))
	b := Comp("f", Const("a"), Var("Y"))
	if !Unify(a, b, s) {
		t.Fatal("expected unification to succeed")
	}
	ra, rb := s.Apply(a), s.Apply(b)
	if !ra.Equal(rb) {
		t.Errorf("substitution is not a unifier: %s vs %s", ra, rb)
	}
	if !ra.Equal(Comp("f", Const("a"), Comp("g", Const("a")))) {
		t.Errorf("unexpected unified term: %s", ra)
	}
}

func TestOccursCheck(t *testing.T) {
	s := Subst{}
	if Unify(Var("X"), Comp("f", Var("X")), s) {
		t.Error("occurs check must reject X = f(X)")
	}
	// Indirect occurrence through the substitution.
	s = Subst{}
	if !Unify(Var("X"), Comp("f", Var("Y")), s) {
		t.Fatal("setup failed")
	}
	if Unify(Var("Y"), Comp("g", Var("X")), s) {
		t.Error("occurs check must reject Y = g(X) when X = f(Y)")
	}
}

func TestChainedLookup(t *testing.T) {
	s := Subst{"X": Var("Y"), "Y": Const("a")}
	if got := s.Lookup(Var("X")); !got.Equal(Const("a")) {
		t.Errorf("Lookup chain broken: %s", got)
	}
}

func TestApplyRecursive(t *testing.T) {
	s := Subst{"X": Const("a")}
	got := s.Apply(Comp("f", Comp("g", Var("X")), Var("Z")))
	want := Comp("f", Comp("g", Const("a")), Var("Z"))
	if !got.Equal(want) {
		t.Errorf("Apply = %s, want %s", got, want)
	}
}

func TestSubstString(t *testing.T) {
	s := Subst{"R": Const("u"), "A": Const("x")}
	if got := s.String(); got != "{A/x, R/u}" {
		t.Errorf("Subst.String() = %q", got)
	}
	s = Subst{"Q": Comp("f", Const("A b"), Null(), Comp("'g'")), "v10": Const("9a"), "v1": Const("42")}
	if got := s.String(); got != "{Q/f('A b', null, ''g''()), v1/42, v10/'9a'}" {
		t.Errorf("Subst.String() = %q", got)
	}
}

// TestSelfBoundVariable: an answer restricted to a query variable nothing
// bound holds X ↦ X (or X ↦ Y, Y ↦ Y). Lookup, Apply and String stop there
// instead of following the binding forever.
func TestSelfBoundVariable(t *testing.T) {
	s := Subst{"X": Var("Y"), "Y": Var("Y"), "Z": Var("Z")}
	if got := s.Lookup(Var("X")); !got.Equal(Var("Y")) {
		t.Errorf("Lookup(X) = %s, want Y", got)
	}
	if got := s.Apply(Comp("f", Var("Z"))); !got.Equal(Comp("f", Var("Z"))) {
		t.Errorf("Apply(f(Z)) = %s, want f(Z)", got)
	}
	if got := s.String(); got != "{X/Y, Y/Y, Z/Z}" {
		t.Errorf("Subst.String() = %q", got)
	}
}

// TestAppendIsString: Append writes exactly String's rendering.
func TestAppendIsString(t *testing.T) {
	for _, tm := range []Term{Const("a"), Const("A"), Const(""), Const("null"), Const("42"), Const("é"),
		Var("X"), Null(), Comp("f"), Comp("F", Const("a"), Comp("g", Var("X"), Null()))} {
		if got := string(tm.Append([]byte("<"))); got != "<"+tm.String() {
			t.Errorf("Append(%s) = %q", tm, got)
		}
	}
}

func TestUnifyAll(t *testing.T) {
	s := Subst{}
	if !UnifyAll([]Term{Var("X"), Const("b")}, []Term{Const("a"), Const("b")}, s) {
		t.Error("UnifyAll should succeed")
	}
	if UnifyAll([]Term{Var("X")}, []Term{Const("a"), Const("b")}, Subst{}) {
		t.Error("UnifyAll must fail on length mismatch")
	}
}

func TestRenamerConsistent(t *testing.T) {
	var r Renamer
	memo := map[string]string{}
	got := r.Fresh(Comp("f", Var("X"), Var("Y"), Var("X")), memo)
	args := got.Args()
	if !args[0].Equal(args[2]) {
		t.Error("renaming must map repeated variables consistently")
	}
	if args[0].Equal(args[1]) {
		t.Error("distinct variables must stay distinct")
	}
	if args[0].Equal(Var("X")) {
		t.Error("renamed variable must be fresh")
	}
	memo2 := map[string]string{}
	got2 := r.Fresh(Var("X"), memo2)
	if got2.Equal(args[0]) {
		t.Error("separate renamings must not collide")
	}
}

func TestVars(t *testing.T) {
	vs := Comp("f", Var("X"), Comp("g", Var("Y"), Const("a")), Var("X")).Vars(nil)
	if len(vs) != 3 || vs[0] != "X" || vs[1] != "Y" || vs[2] != "X" {
		t.Errorf("Vars = %v", vs)
	}
}

// randomTerm builds a random ground or near-ground term for property tests.
func randomTerm(r *rand.Rand, depth int) Term {
	switch n := r.Intn(6); {
	case n == 0 && depth < 3:
		k := r.Intn(3)
		args := make([]Term, k)
		for i := range args {
			args[i] = randomTerm(r, depth+1)
		}
		return Comp(string(rune('f'+r.Intn(3))), args...)
	case n == 1:
		return Var(string(rune('X' + r.Intn(3))))
	case n == 2:
		return Null()
	default:
		return Const(string(rune('a' + r.Intn(4))))
	}
}

func TestQuickUnifyIsUnifier(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomTerm(r, 0), randomTerm(r, 0)
		s := Subst{}
		if !Unify(a, b, s) {
			return true // nothing to check on failure
		}
		return s.Apply(a).Equal(s.Apply(b))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnifySymmetric(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomTerm(r, 0), randomTerm(r, 0)
		return Unify(a, b, Subst{}) == Unify(b, a, Subst{})
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickApplyIdempotentOnGround(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomTerm(r, 0)
		s := Subst{"X": Const("a"), "Y": Const("b"), "Z": Const("c")}
		once := s.Apply(a)
		if !once.IsGround() {
			return true // unbound variable beyond X/Y/Z cannot appear, but be safe
		}
		return s.Apply(once).Equal(once)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Key is injective on structurally distinct terms (a property test over the
// random term generator).
func TestQuickKeyInjective(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomTerm(r, 0), randomTerm(r, 0)
		if a.Equal(b) {
			return a.Key() == b.Key()
		}
		return a.Key() != b.Key()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// AppendKey writes exactly Key's rendering: for constants that print quoted,
// variables, ⊥ and nested compounds, and for random terms.
func TestQuickAppendKeyIsKey(t *testing.T) {
	check := func(tm Term) bool {
		if got := string(tm.AppendKey(nil)); got != tm.Key() {
			t.Errorf("AppendKey(nil) of %s = %q, Key = %q", tm, got, tm.Key())
			return false
		}
		if got := string(tm.AppendKey([]byte("<"))); got != "<"+tm.Key() {
			t.Errorf("AppendKey(<) of %s = %q", tm, got)
			return false
		}
		return true
	}
	for _, tm := range []Term{Const("a"), Const("A"), Const(""), Const("null"), Const("not"),
		Const("42"), Const("9a"), Const("é"), Const("a b"), Const("x,y)"), Var("X"), Var("_"),
		Null(), Comp("f"), Comp("F", Const("a"), Comp("g", Var("X"), Null()), Comp("h", Comp("i")))} {
		check(tm)
	}
	prop := func(seed int64) bool {
		return check(randomTerm(rand.New(rand.NewSource(seed)), 0))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// UnifyTrail binds what Unify binds, and Undo of its trail restores the
// substitution it extended, whether unification succeeded or failed partway.
func TestQuickUnifyTrailUndo(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomTerm(r, 0), randomTerm(r, 0)
		s := Subst{}
		if r.Intn(2) == 0 {
			s["Z"] = randomTerm(r, 1)
			if occurs("Z", s["Z"], Subst{}) {
				delete(s, "Z")
			}
		}
		before, ref := s.Clone(), s.Clone()
		refOK := Unify(a, b, ref)
		trail, ok := UnifyTrail(a, b, s, nil)
		if ok != refOK || ok && !maps.EqualFunc(s, ref, Term.Equal) {
			return false
		}
		s.Undo(trail)
		return maps.EqualFunc(s, before, Term.Equal)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
