package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/lattice"
	"repro/internal/lint"
	"repro/internal/multilog"
	"repro/internal/term"
	"repro/internal/workload"
)

// errorFindings keeps the Error-severity findings of a full lint.
func errorFindings(ds lint.Diagnostics) lint.Diagnostics {
	var out lint.Diagnostics
	for _, d := range ds {
		if d.Severity == lint.Error {
			out = append(out, d)
		}
	}
	return out
}

// writeLintCase is one write against a prepared program: MultiLog source,
// asserted or retracted.
type writeLintCase struct {
	src     string
	retract bool
}

// The writes whose lint scope differs (lint.MultiLogWrite), counted by
// TestWriteLintIsFullLint to state its coverage of MultiLogWrite's branches.
const (
	scopePiAdd        = "Π add"
	scopeUndefines    = "Π retract undefining a Σ-read predicate"
	scopeKeepsDefined = "Π retract keeping a Σ-read predicate defined"
	scopeBelRetract   = "bel/7 retract"
)

// writeScopes returns the lint scopes of a write that made next by adding
// added and removing removed.
func writeScopes(next *multilog.Database, added, removed []multilog.Clause) []string {
	var scopes []string
	for _, c := range added {
		if c.Head.Kind == multilog.GoalP {
			scopes = append(scopes, scopePiAdd)
			break
		}
	}
	defined, sigmaReads := map[string]bool{}, map[string]bool{}
	for _, cs := range [][]multilog.Clause{next.Lambda, next.Pi} {
		for _, c := range cs {
			defined[c.Head.P.Pred] = true
		}
	}
	for _, c := range next.Sigma {
		for _, g := range c.Body {
			if g.Kind == multilog.GoalP {
				sigmaReads[g.P.Pred] = true
			}
		}
	}
	seen := map[string]bool{}
	for _, c := range removed {
		if c.Head.Kind != multilog.GoalP {
			continue
		}
		h := c.Head.P
		scope := ""
		switch {
		case h.Pred == multilog.UserBelPred && len(h.Args) == 7:
			scope = scopeBelRetract
		case sigmaReads[h.Pred] && defined[h.Pred]:
			scope = scopeKeepsDefined
		case sigmaReads[h.Pred]:
			scope = scopeUndefines
		}
		if scope != "" && !seen[scope] {
			seen[scope] = true
			scopes = append(scopes, scope)
		}
	}
	return scopes
}

// checkWriteLint makes one write through update and checks it against the
// full lint of the database it would publish: the write path's findings are
// that lint's Error findings, diagnostic for diagnostic; the write is refused
// exactly when there are any; and a refused write leaves the snapshot, the
// epoch and the log (commit) untouched. It returns the codes refused, and
// counts the write's lint scopes in scopes.
func checkWriteLint(t *testing.T, p *preparedProgram, w writeLintCase, scopes map[string]int) []string {
	t.Helper()
	delta, err := multilog.Parse(w.src)
	if err != nil {
		t.Fatalf("write %q does not parse: %v", w.src, err)
	}
	cur := p.current()
	var added, retracted []multilog.Clause
	if written := append(append([]multilog.Clause{}, delta.Sigma...), delta.Pi...); w.retract {
		retracted = written
	} else {
		added = written
	}
	next, removed, err := cur.db.Write(added, retracted)
	if err != nil {
		t.Fatal(err)
	}
	for _, scope := range writeScopes(next.Database(), added, removed) {
		scopes[scope]++
	}
	opts := lint.Options{File: p.name}
	want := errorFindings(lint.MultiLog(next.Database(), opts))
	if got := lint.MultiLogWrite(next, added, removed, opts); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("write %q (retract %v): the write lint differs from the full lint's errors\ngot:\n%swant:\n%s", w.src, w.retract, got, want)
	}
	clearance, ok := clearanceFor(cur.poset, delta.Sigma)
	if !ok {
		return nil // no single subject may write it; the lint equality is what this case checks
	}
	commits := 0
	epoch, _, _, err := p.update(context.Background(), w.src, clearance, w.retract, func() error { commits++; return nil })
	var le *LintError
	switch {
	case len(want) > 0:
		if !errors.As(err, &le) || le.Findings != want.String() {
			t.Fatalf("write %q (retract %v): want it refused with\n%sgot %v", w.src, w.retract, want, err)
		}
		if p.current() != cur || commits != 0 {
			t.Fatalf("write %q: a refused write moved the snapshot or reached the log", w.src)
		}
	case err != nil:
		t.Fatalf("write %q (retract %v): lint-clean, but refused: %v", w.src, w.retract, err)
	case len(added)+len(removed) == 0:
		if epoch != cur.epoch || commits != 0 {
			t.Fatalf("write %q: a write that changed nothing made epoch %d (from %d), %d commits", w.src, epoch, cur.epoch, commits)
		}
	case epoch != cur.epoch+1 || commits != 1 || p.current().epoch != epoch:
		t.Fatalf("write %q: committed at epoch %d from %d with %d commits", w.src, epoch, cur.epoch, commits)
	}
	codes := make([]string, len(want))
	for i, d := range want {
		codes[i] = d.Code
	}
	return codes
}

// clearanceFor returns a level dominating every asserted level the Σ clauses
// name, the clearance a subject needs to write them, if the lattice has one.
func clearanceFor(poset *lattice.Poset, sigma []multilog.Clause) (lattice.Label, bool) {
	var named []lattice.Label
	for _, c := range sigma {
		for _, g := range append([]multilog.Goal{c.Head}, c.Body...) {
			if g.Kind != multilog.GoalM && g.Kind != multilog.GoalB {
				continue
			}
			for _, t := range []term.Term{g.M.Level, g.M.Class} {
				if t.Kind() == term.KindConst && poset.Has(lattice.Label(t.Name())) {
					named = append(named, lattice.Label(t.Name()))
				}
			}
		}
	}
next:
	for _, u := range poset.Labels() {
		for _, l := range named {
			if !poset.Dominates(u, l) {
				continue next
			}
		}
		return u, true
	}
	return "", false
}

// cleanBase splits a program into the largest prefix-greedy part the full
// lint passes without an Error — Λ and the queries, then each Π and Σ clause
// that keeps it clean — and the clauses that did not; nil when Λ itself fails.
func cleanBase(t *testing.T, src string) (*multilog.Database, []multilog.Clause) {
	t.Helper()
	full, err := multilog.Parse(src)
	if err != nil {
		return nil, nil
	}
	if !lint.MultiLog(full, lint.Options{}).HasErrors() {
		return full, nil
	}
	db := &multilog.Database{Lambda: full.Lambda, Queries: full.Queries}
	if lint.MultiLog(db, lint.Options{}).HasErrors() {
		return nil, nil
	}
	var rejected []multilog.Clause
	for _, c := range append(append([]multilog.Clause{}, full.Pi...), full.Sigma...) {
		try := db.Clone()
		if err := try.AddClause(c); err != nil {
			t.Fatal(err)
		}
		if lint.MultiLog(try, lint.Options{}).HasErrors() {
			rejected = append(rejected, c)
		} else {
			db = try
		}
	}
	return db, rejected
}

// preparedFrom publishes db as a program's first epoch, the way a load does
// once the full lint has passed.
func preparedFrom(t *testing.T, name string, db *multilog.Database) *preparedProgram {
	t.Helper()
	if ds := lint.MultiLog(db, lint.Options{File: name}); ds.HasErrors() {
		t.Fatalf("%s: base is not lint-clean:\n%s", name, ds)
	}
	poset, err := db.Poset()
	if err != nil {
		t.Fatal(err)
	}
	return &preparedProgram{name: name, snap: newSnapshot(1, db, poset)}
}

// writeLintMix is the shape mix TestWriteLintIsFullLint draws its writes
// from: every shape the workload generator has, hostile ones included, and
// retracts of stored clauses.
var writeLintMix = workload.MonotoneMix.With(workload.NonMonotoneMix).With(workload.HostileMix).
	With(workload.Mix{workload.Fact: 2, workload.Retract: 6})

// malformedWrite draws, beside workload.DrawWrite's well-formed writes, an
// assert over the program's own vocabulary that is well-formed or not, as the
// draw falls: a Σ fact whose class is drawn apart from its level (ML003), a Σ
// rule in a mode drawn from fir, opt, cau and rumor, which few programs
// define (ML002), half the time over a Π goal, the program's or the
// undefined nowhere (DL002); a Π fact of a fresh predicate or of one of the
// program's at arity 1 (DL004 where it has another arity, a Σ rule's goal
// among them); a Π rule over Λ or one of the program's Π predicates.
func malformedWrite(r *rand.Rand, db *multilog.Database, poset *lattice.Poset, n int) writeLintCase {
	pick := func(cs []multilog.Clause, facts bool) (multilog.Clause, bool) {
		cs = slices.DeleteFunc(slices.Clone(cs), func(c multilog.Clause) bool { return c.IsFact() != facts })
		if len(cs) == 0 {
			return multilog.Clause{}, false
		}
		return cs[r.Intn(len(cs))], true
	}
	labels := poset.Labels()
	lvl := func() string { return string(labels[r.Intn(len(labels))]) }
	sigmaPred, piPred := "p0", "wq"
	if c, ok := pick(db.Sigma, true); ok {
		sigmaPred = c.Head.M.Pred
	}
	if c, ok := pick(db.Pi, r.Intn(2) == 0); ok {
		piPred = c.Head.P.Pred
	}
	switch r.Intn(4) {
	case 0:
		l := lvl()
		return writeLintCase{src: fmt.Sprintf("%s[%s(w%d: a -%s-> x%d)].", l, sigmaPred, n, []string{l, lvl()}[r.Intn(2)], n)}
	case 1:
		body := fmt.Sprintf("%s[%s(K: a -C-> V)] << %s", lvl(), sigmaPred, []string{"fir", "opt", "cau", "rumor"}[r.Intn(4)])
		if r.Intn(2) == 0 {
			body += fmt.Sprintf(", %s(K)", []string{piPred, "nowhere"}[r.Intn(2)])
		}
		l := lvl()
		return writeLintCase{src: fmt.Sprintf("%s[w%d(K: d -%s-> y)] :- %s.", l, n, l, body)}
	case 2:
		return writeLintCase{src: fmt.Sprintf("%s(w%d).", []string{fmt.Sprintf("wf%d", n), piPred}[r.Intn(2)], n)}
	default:
		return writeLintCase{src: fmt.Sprintf("wr%d(X) :- %s(X).", n, []string{"level", piPred}[r.Intn(2)])}
	}
}

// TestWriteLintIsFullLint: on every write, over the lint golden corpus, the
// example programs, D1, the benchmark's shape at 200 facts and a program of
// every generated shape, the Error findings the write path checks are those
// of the full lint of the database it would publish, and the write is
// refused exactly when there are any — writes drawn by the workload
// generator from every shape it has (writeLintMix; a hostile one must be
// refused with ML009) and, every other write, by malformedWrite, each corpus
// program's own rejected clauses written back in, and one planted write per
// Error class. It logs, and fails on a zero of, the writes of each shape, the
// writes of each lint scope MultiLogWrite tells apart, and the random writes
// refused for each of ML002, ML003, DL002 and DL004.
func TestWriteLintIsFullLint(t *testing.T) {
	corpus := map[string]string{
		"d1":    multilog.D1Source,
		"bench": workload.ProgramSource(workload.ProgramConfig{Levels: 4, Facts: 200, Rules: 16, Preds: 6, Poly: 0.3, Seed: 1}),
	}
	for _, lat := range []workload.LatticeShape{workload.ShapeChain, workload.ShapeDiamond, workload.ShapeProduct, workload.ShapeDAG} {
		corpus["generated-"+lat.String()] = workload.Generate(workload.ProgramConfig{Lattice: lat, Levels: 5, Facts: 40, Preds: 3, Rules: 12,
			Poly: 0.3, ClassBelow: true, Mix: workload.MonotoneMix.With(workload.NonMonotoneMix), Seed: 1}).Source
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
			corpus[filepath.Base(path)] = string(src)
		}
	}
	// 40 writes a program in -short runs too: fewer leave the rarer shapes
	// (user-mode, Π-reading: only the generated programs have what they
	// need) undrawn.
	const writes = 40
	findings, scopes, drawn, random := map[string]int{}, map[string]int{}, map[workload.ClauseShape]int{}, map[string]int{}
	total, refused := 0, 0
	write := func(p *preparedProgram, w writeLintCase) []string {
		codes := checkWriteLint(t, p, w, scopes)
		total++
		if len(codes) > 0 {
			refused++
		}
		for _, code := range codes {
			findings[code]++
		}
		return codes
	}
	for name, src := range corpus {
		db, rejected := cleanBase(t, src)
		if db == nil {
			continue
		}
		p := preparedFrom(t, name, db)
		r := rand.New(rand.NewSource(int64(len(name))))
		for _, c := range rejected {
			write(p, writeLintCase{src: c.String()})
		}
		for i := 0; i < writes; i++ {
			w := workload.DrawWrite(r, p.current().db.Database(), p.current().poset, writeLintMix, i)
			drawn[w.Shape]++
			codes := write(p, writeLintCase{src: w.Src, retract: w.Retract})
			if workload.HostileMix[w.Shape] > 0 && !slices.Contains(codes, "ML009") {
				t.Errorf("%s: the %s write %q was not refused with ML009 (codes %v)", name, w.Shape, w.Src, codes)
			}
			if i%2 == 0 {
				codes = append(codes, write(p, malformedWrite(r, p.current().db.Database(), p.current().poset, i))...)
			}
			for _, code := range codes {
				random[code]++
			}
		}
	}
	t.Logf("%d writes over the corpus, %d refused; their findings by code: %v", total, refused, findings)

	// The planted writes, each refused for its Error class. The last two
	// break a Σ clause that was clean before them. DL008 has none: MultiLog
	// has no negation, so no MultiLog program closes a negative cycle; its
	// pass runs on every Π write all the same.
	planted, err := multilog.Parse(`
		level(u). level(c). level(s). order(u, c). order(c, s).
		u[p(k: a -u-> v)].
		c[r(k: a -c-> w)] :- q(k), u[p(k: a -u-> v)] << rumor.
		q(k).
		bel(p, k, a, v, u, u, rumor).
	`)
	if err != nil {
		t.Fatal(err)
	}
	p := preparedFrom(t, "planted", planted)
	for _, c := range []struct {
		code string
		w    writeLintCase
	}{
		{"DL001", writeLintCase{src: "u[p(K: a -u-> v)] :- q(k)."}},
		{"DL002", writeLintCase{src: "u[p(k2: a -u-> v)] :- missing(k2)."}},
		{"DL004", writeLintCase{src: "q(a, b)."}},
		{"ML001", writeLintCase{src: "u[p(k3: a -null-> v)]."}},
		{"ML002", writeLintCase{src: "s[r2(k: a -s-> x)] :- u[p(k: a -u-> v)] << maybe."}},
		{"ML003", writeLintCase{src: "u[p(k4: a -s-> v)]."}},
		{"ML004", writeLintCase{src: "top[p(k5: a -u-> v)]."}},
		{"DL002", writeLintCase{src: "q(k).", retract: true}},
		{"ML002", writeLintCase{src: "bel(p, k, a, v, u, u, rumor).", retract: true}},
	} {
		if codes := checkWriteLint(t, p, c.w, scopes); !strings.Contains(strings.Join(codes, " "), c.code) {
			t.Errorf("planted write %q (retract %v): refused for %v, want %s", c.w.src, c.w.retract, codes, c.code)
		}
	}
	// Every shape the generator has, declared apart from writeLintMix so
	// that a shape dropped from the mix fails here.
	every := workload.MonotoneMix.With(workload.NonMonotoneMix).With(workload.HostileMix).
		With(workload.Mix{workload.Fact: 1, workload.Retract: 1})
	for _, shape := range every.Report(t.Logf, drawn) {
		t.Errorf("no write of shape %s was drawn: the check does not cover it", shape)
	}
	t.Logf("random writes by the code refusing them: %v", random)
	for _, code := range []string{"ML002", "ML003", "DL002", "DL004", "ML009"} {
		if random[code] == 0 {
			t.Errorf("no random write was refused with %s: the check does not cover it", code)
		}
	}
	t.Logf("writes by lint scope: %v", scopes)
	for _, scope := range []string{scopePiAdd, scopeUndefines, scopeKeepsDefined, scopeBelRetract} {
		if scopes[scope] == 0 {
			t.Errorf("no write of lint scope %q: the check does not cover it", scope)
		}
	}
}
