package lint

import (
	"testing"

	"repro/internal/datalog"
	"repro/internal/multilog"
)

// TestWriteLintScope plants what a write's lint must and must not read. The
// base breaks the invariant every published database keeps — it is
// Error-free — with one Σ clause whose assertion level does not dominate its
// classification (ML003), so a write lint that walks Σ reports it. A Π add,
// and a Π retract undefining a predicate no Σ body reads, must not: they
// cannot newly fail a pass over Σ. A Π retract undefining a predicate a Σ
// body reads must report DL002 at that goal, and a bel/7 retract ML002 at the
// b-atom that used the mode it took away.
func TestWriteLintScope(t *testing.T) {
	base, err := multilog.Parse(`
		level(u). level(c). order(u, c).
		u[p(k: a -u-> v)].
		u[bad(k: a -c-> v)].
		c[r(k: a -c-> w)] :- q(k), u[p(k: a -u-> v)] << rumor.
		q(k).
		s(k).
		t(X) :- s(X).
		bel(p, k, a, v, u, u, rumor).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if got := codes(MultiLog(base, Options{})); got != "ML003" {
		t.Fatalf("the planted base lints as %q, want its one ML003", got)
	}
	rule := base.Sigma[2]
	readsQ, believes := rule.Body[0].Pos, rule.Body[1].Pos
	v := multilog.NewVersion(base)

	for _, c := range []struct {
		name    string
		src     string
		retract bool
		want    string           // the codes reported, in order
		code    string           // a code that must be reported at at, when set
		at      datalog.Position //
	}{
		{name: "Π add", src: "w(k). z(X) :- w(X)."},
		{name: "Π add breaking Π", src: "z(X) :- w(Y).", want: "DL001 DL002"},
		{name: "Π retract undefining a Π-read predicate", src: "s(k).", retract: true, want: "DL002"},
		{name: "Π retract undefining a Σ-read predicate", src: "q(k).", retract: true, want: "ML003 DL002", code: "DL002", at: readsQ},
		{name: "bel/7 retract", src: "bel(p, k, a, v, u, u, rumor).", retract: true, want: "ML003 ML002", code: "ML002", at: believes},
	} {
		t.Run(c.name, func(t *testing.T) {
			delta, err := multilog.Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			var added, retracted []multilog.Clause
			if c.retract {
				retracted = delta.Pi
			} else {
				added = delta.Pi
			}
			next, removed, err := v.Write(added, retracted)
			if err != nil {
				t.Fatal(err)
			}
			if len(removed) != len(retracted) {
				t.Fatalf("the write removed %v, want %v", removed, retracted)
			}
			got := MultiLogWrite(next, added, removed, Options{})
			if codes(got) != c.want {
				t.Fatalf("the write lint reports %q, want %q:\n%s", codes(got), c.want, got)
			}
			if c.code == "" {
				return
			}
			for _, d := range got {
				if d.Code == c.code && d.Pos == c.at {
					return
				}
			}
			t.Fatalf("no %s at %s:\n%s", c.code, c.at, got)
		})
	}
}

// codes renders the findings' codes in order, space-separated.
func codes(ds Diagnostics) string {
	out := ""
	for i, d := range ds {
		if i > 0 {
			out += " "
		}
		out += d.Code
	}
	return out
}
