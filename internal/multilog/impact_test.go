package multilog_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/mls"
	"repro/internal/multilog"
	"repro/internal/workload"
)

// reducedEdges is the impact graph's reference construction: the reverse
// body-to-head edges of Reduce's whole program at every asserted level,
// facts included, each list sorted.
func reducedEdges(t *testing.T, db *multilog.Database) (map[string][]string, bool) {
	t.Helper()
	poset, err := db.Poset()
	if err != nil {
		return nil, false
	}
	rev := map[string][]string{}
	seen := map[string]bool{}
	for _, u := range poset.Labels() {
		red, err := multilog.Reduce(db, u)
		if err != nil {
			return nil, false
		}
		for _, c := range red.Program.Clauses {
			for _, l := range c.Body {
				if ek := l.Atom.Pred + "\x00" + c.Head.Pred; !l.Atom.IsBuiltin() && !seen[ek] {
					seen[ek] = true
					rev[l.Atom.Pred] = append(rev[l.Atom.Pred], c.Head.Pred)
				}
			}
		}
	}
	for _, hs := range rev {
		sort.Strings(hs)
	}
	return rev, true
}

// TestImpactGraphSkipsFacts: the impact graph, built from the rules and the
// axioms of every Σ predicate alone, has exactly the edges of the whole
// reduction at every level — on D1, the Mission relation and the Figure 13
// programs, the lint and example corpora and the benchmark's shape — before
// and after rule writes: a Σ rule over a new head, a Π rule, and the retract
// of a rule the program had.
func TestImpactGraphSkipsFacts(t *testing.T) {
	mission, err := multilog.FromRelation(mls.Mission())
	if err != nil {
		t.Fatal(err)
	}
	dbs := map[string]*multilog.Database{"d1": multilog.D1(), "mission": mission}
	srcs := map[string]string{
		"fig13-filter": `level(u). level(c). level(s). order(u, c). order(c, s).
			s[mission(phantom: starship -u-> phantom; objective -s-> spying; destination -u-> omega)].`,
		"fig13-mode": `level(u). level(c). level(s). order(u, c). order(c, s).
			u[p(k: a -u-> v)].
			bel(p, k, a, v, u, L, myway) :- level(L).`,
		"bench": workload.ProgramSource(workload.ProgramConfig{Levels: 4, Facts: 200, Rules: 16, Preds: 6, Poly: 0.3, Seed: 1}),
	}
	for _, glob := range []string{"../lint/testdata/*.mlg", "../../examples/programs/*.mlg"} {
		paths, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			srcs[filepath.Base(path)] = string(src)
		}
	}
	for name, src := range srcs {
		if db, err := multilog.Parse(src); err == nil {
			dbs[name] = db
		}
	}
	check := func(name string, db *multilog.Database) bool {
		want, ok := reducedEdges(t, db)
		if !ok {
			return false // not admissible: no reduction to compare with
		}
		g, err := multilog.NewImpactGraph(db)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := map[string][]string{}
		for p, hs := range multilog.ImpactEdges(g) {
			got[p] = append([]string(nil), hs...)
			sort.Strings(got[p])
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: impact graph edges differ from the whole reduction's\ngot:  %v\nwant: %v", name, got, want)
		}
		return true
	}
	compared := 0
	for name, db := range dbs {
		if !check(name, db) {
			continue
		}
		compared++
		poset, _ := db.Poset()
		bottom, top := poset.Labels()[0], poset.Labels()[len(poset.Labels())-1]
		pred, attr := "fresh", "a"
		for _, c := range db.Sigma {
			pred, attr = c.Head.M.Pred, c.Head.M.Attr
			break
		}
		writes, err := multilog.Parse(string(top) + "[churnrule(K: d -" + string(top) + "-> x)] :- " +
			string(bottom) + "[" + pred + "(K: " + attr + " -C-> V)] << cau.\nchurn0(X) :- level(X).")
		if err != nil {
			t.Fatal(err)
		}
		next := db.Clone()
		for _, c := range append(writes.Sigma, writes.Pi...) {
			if err := next.AddClause(c); err != nil {
				t.Fatal(err)
			}
		}
		for i, c := range next.Sigma {
			if !c.IsFact() && c.Head.M.Pred != "churnrule" {
				next.Sigma = append(next.Sigma[:i:i], next.Sigma[i+1:]...)
				break
			}
		}
		check(name+" after rule writes", next)
	}
	t.Logf("compared %d programs, before and after rule writes", compared)
	if compared < 10 {
		t.Fatalf("compared %d programs, want the corpus", compared)
	}
}

// BenchmarkNewImpactGraph prices the graph a fact write builds on the first
// write after a load or a rule write, at the benchmark's shape.
func BenchmarkNewImpactGraph(b *testing.B) {
	for _, facts := range []int{200, 2000} {
		b.Run(fmt.Sprintf("facts=%d", facts), func(b *testing.B) {
			db, err := multilog.Parse(workload.ProgramSource(workload.ProgramConfig{
				Levels: 4, Facts: facts, Rules: 16, Preds: 6, Poly: 0.3, Seed: 1}))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := multilog.NewImpactGraph(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
