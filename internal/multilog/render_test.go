package multilog_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/multilog"
	"repro/internal/term"
	"repro/internal/workload"
)

// The reference renderings: fmt over each part, as goals and queries were
// rendered before they were appended into one buffer.

func fmtAtom(a datalog.Atom) string {
	if a.IsBuiltin() && len(a.Args) == 2 {
		return fmt.Sprintf("%s %s %s", a.Args[0], a.Pred, a.Args[1])
	}
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", term.QuoteIdent(a.Pred), strings.Join(parts, ", "))
}

func fmtGoal(g multilog.Goal) string {
	m := g.M
	matom := fmt.Sprintf("%s[%s(%s: %s -%s-> %s)]", m.Level, m.Pred, m.Key, m.Attr, m.Class, m.Value)
	switch g.Kind {
	case multilog.GoalM:
		return matom
	case multilog.GoalB:
		return fmt.Sprintf("%s << %s", matom, g.Mode)
	default:
		return fmtAtom(g.P)
	}
}

func fmtQuery(q multilog.Query) string {
	parts := make([]string, len(q))
	for i, g := range q {
		parts[i] = fmtGoal(g)
	}
	return "?- " + strings.Join(parts, ", ") + "."
}

// renderCorpus is the parser round-trip corpus: the print/parse fuzzer's
// checked-in inputs, the example programs, and generated programs of every
// shape.
func renderCorpus(t *testing.T) map[string]*multilog.Database {
	t.Helper()
	dbs := map[string]*multilog.Database{}
	add := func(name, src string) bool {
		db, err := multilog.Parse(src)
		if err == nil {
			dbs[name] = db
		}
		return err == nil
	}
	fuzzed, _ := filepath.Glob("../differential/testdata/fuzz/FuzzParseMultiLog/*")
	for _, path := range fuzzed {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if quoted, ok := strings.CutPrefix(line, "string("); ok {
				src, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				add(path, src)
			}
		}
	}
	// Quoted constants and predicates, a compound, null and a built-in.
	if !add("hand", "level(u). level(s). order(u, s).\n"+
		"u[p(f(k, 'X y'): a -u-> null)].\n"+
		"s[p(K: a -s-> 'a b')] :- 'q r'(K, g(h(K), 'Z')), K != V, u[p(K: a -u-> V)] << opt, V = null.\n"+
		"?- L[p(f(K, 'X y'): a -C-> V)] << cau, 'q r'(K, W).") {
		t.Fatal("the hand-written program does not parse")
	}
	examples, _ := filepath.Glob("../../examples/programs/*.mlg")
	for _, path := range append(examples, "../../cmd/multilog/testdata/mission.mlg") {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		add(path, string(data))
	}
	for seed, mix := range []workload.Mix{workload.MonotoneMix, workload.NonMonotoneMix, workload.HostileMix} {
		for levels := 2; levels <= 4; levels++ {
			prog := workload.Generate(workload.ProgramConfig{
				Levels: levels, Facts: 30, Rules: 12, Preds: 3, Poly: 0.5, Seed: int64(seed*10 + levels), Mix: mix})
			add(fmt.Sprintf("generated %d/%d", seed, levels), prog.Source)
		}
	}
	if len(dbs) < len(examples)+9 {
		t.Fatalf("the corpus parsed %d databases, want the examples and generated programs at least", len(dbs))
	}
	return dbs
}

// TestQueryRenderingIsFmt holds Query.String, the server's cache key and
// query echo, and Goal.String byte-identical to the fmt rendering over the
// parser round-trip corpus: every clause's goals and every ?- query, and
// every probe workload.Probes asks of the database, as asked and after the
// server's belief rewrite.
func TestQueryRenderingIsFmt(t *testing.T) {
	kinds := map[multilog.GoalKind]int{}
	check := func(where string, q multilog.Query) {
		t.Helper()
		for _, g := range q {
			kinds[g.Kind]++
			if got, want := g.String(), fmtGoal(g); got != want {
				t.Fatalf("%s: Goal.String %q, fmt renders %q", where, got, want)
			}
		}
		if got, want := q.String(), fmtQuery(q); got != want {
			t.Fatalf("%s: Query.String %q, fmt renders %q", where, got, want)
		}
	}
	queries := 0
	for name, db := range renderCorpus(t) {
		for _, c := range append(append(append([]multilog.Clause{}, db.Lambda...), db.Sigma...), db.Pi...) {
			check(name, append(multilog.Query{c.Head}, c.Body...))
			queries++
		}
		for _, q := range db.Queries {
			check(name, q)
			queries++
		}
		poset, err := db.Poset()
		if err != nil {
			continue
		}
		for _, p := range workload.Probes(db, poset, poset.Labels()...) {
			goals, err := multilog.ParseGoals(p.Src)
			if err != nil {
				t.Fatalf("%s: probe %q: %v", name, p.Src, err)
			}
			check(name, goals)
			for i, g := range goals {
				if g.Kind == multilog.GoalM {
					goals[i] = multilog.BGoal(g.M, multilog.ModeOpt)
				}
			}
			check(name, goals)
			queries += 2
		}
	}
	t.Logf("%d queries rendered alike; goals by kind (m, b, p, l, h): %d %d %d %d %d", queries,
		kinds[multilog.GoalM], kinds[multilog.GoalB], kinds[multilog.GoalP], kinds[multilog.GoalL], kinds[multilog.GoalH])
	for k := multilog.GoalM; k <= multilog.GoalH; k++ {
		if kinds[k] == 0 {
			t.Errorf("no goal of kind %d was rendered", k)
		}
	}
}
