package multilog_test

import (
	"context"
	"testing"

	"repro/internal/multilog"
	"repro/internal/resource"
)

// TestMonotoneClause pins the check's verdict on each shape it decides, over
// a diamond l0 < a, b < l3.
func TestMonotoneClause(t *testing.T) {
	db, err := multilog.Parse("level(l0). level(a). level(b). level(l3). order(l0, a). order(l0, b). order(a, l3). order(b, l3).")
	if err != nil {
		t.Fatal(err)
	}
	poset, err := db.Poset()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		clause string
		want   bool
	}{
		{"a[p(k: x -l0-> v)].", true},
		{"a[p(k: x -a-> v)].", true},
		{"a[p(k: x -b-> v)].", false}, // classified above its level
		{"l3[q(K: d -l3-> V)] :- a[p(K: x -C-> V)] << opt.", true},
		{"a[q(K: d -C-> V)] :- a[p(K: x -C-> V)] << cau.", true},
		{"L[q(K: d -L-> x)] :- L[p(K: x -C-> V)] << cau.", true},
		{"L[q(K: d -C-> V)] :- l0[p(K: x -C-> V)].", true},
		{"L[q(K: d -l0-> V)] :- l0[p(K: x -C-> V)].", true},
		{"L[q(K: d -a-> V)] :- l0[p(K: x -C-> V)].", false}, // a is not below every L
		{"l3[q(K: d -l3-> V)] :- a[p(K: x -C-> V)], hot(V).", true},
		{"a[q(K: d -a-> V)] :- l3[p(K: x -C-> V)] << fir.", false}, // write-down
		{"a[q(K: d -a-> V)] :- b[p(K: x -C-> V)] << fir.", false},  // incomparable
		{"L[q(K: d -L-> V)] :- M[p(K: x -C-> V)].", false},
		{"a[q(K: d -a-> V)] :- L[p(K: x -C-> V)].", false},
		{"l3[q(K: d -C-> V)] :- a[p(K: x -D-> V)], cls(C).", false}, // class laundered through a p-goal
		{"l3[q(K: d -l3-> V)] :- a[p(K: x -C-> V)] << rumor.", false},
		{"l3[q(K: d -C-> V)] :- mlrel_p_l3(K, x, V, C).", false},
		{"hot(V) :- tag(V).", true},
		{"leak(K) :- mlbel_p_l3_fir(K, x, V, C).", false},
	} {
		c, err := multilog.Parse(tc.clause)
		if err != nil {
			t.Fatal(err)
		}
		cl := append(c.Sigma, c.Pi...)[0]
		if got := multilog.MonotoneClause(cl, poset); got != tc.want {
			t.Errorf("MonotoneClause(%s) = %v, want %v", tc.clause, got, tc.want)
		}
	}
}

// TestViewAtADominatedClearance: a view answers at its own clearance, refuses
// one its reduction does not dominate, and is refused by Advance.
func TestViewAtADominatedClearance(t *testing.T) {
	db, err := multilog.Parse(`level(l0). level(l1). order(l0, l1).
		l0[p(k: x -l0-> low)]. l1[p(k: x -l1-> high)].`)
	if err != nil {
		t.Fatal(err)
	}
	red, err := multilog.Reduce(db, "l1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := red.View("l0"); err == nil {
		t.Fatal("an unprepared reduction gave a view")
	}
	if err := red.Prepare(context.Background(), resource.Limits{}); err != nil {
		t.Fatal(err)
	}
	low, err := red.View("l0")
	if err != nil {
		t.Fatal(err)
	}
	q, err := multilog.ParseGoals("L[p(K: x -C-> V)]")
	if err != nil {
		t.Fatal(err)
	}
	answers, _, err := low.QueryPrepared(context.Background(), q, resource.Limits{})
	if err != nil || len(answers) != 1 || answers[0].Bindings["V"].String() != "low" {
		t.Fatalf("the view at l0 answers %v (%v), want the l0 cell alone", answers, err)
	}
	if self, _ := red.View("l1"); self != red {
		t.Error("a view at the reduction's own clearance is not the reduction")
	}
	lowRed, err := multilog.Reduce(db, "l0")
	if err != nil {
		t.Fatal(err)
	}
	if err := lowRed.Prepare(context.Background(), resource.Limits{}); err != nil {
		t.Fatal(err)
	}
	if _, err := lowRed.View("l1"); err == nil {
		t.Error("a reduction at l0 gave a view at l1")
	}
	if _, _, err := low.Advance(context.Background(), nil, db.Sigma[:1], nil, resource.Limits{}); err == nil {
		t.Error("Advance accepted a view")
	}
}
