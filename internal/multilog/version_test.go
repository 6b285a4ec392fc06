package multilog_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/multilog"
	"repro/internal/workload"
)

// flatRetract is the flat write path's retract, the reference a version's
// is held to: it filters out of dst, in place, every clause equal to one of
// del, and returns them in dst's order.
func flatRetract(dst *[]multilog.Clause, del []multilog.Clause) []multilog.Clause {
	kept := (*dst)[:0]
	var removed []multilog.Clause
	for _, c := range *dst {
		gone := false
		for _, d := range del {
			if c.Equal(d) {
				gone = true
				break
			}
		}
		if gone {
			removed = append(removed, c)
		} else {
			kept = append(kept, c)
		}
	}
	*dst = kept
	return removed
}

// flatWrite is Version.Write on a flat database: a clone with removed
// filtered out, Σ first and then Π, and added appended.
func flatWrite(t *testing.T, db *multilog.Database, added, removed []multilog.Clause) (*multilog.Database, []multilog.Clause) {
	t.Helper()
	next := db.Clone()
	var sigma, pi []multilog.Clause
	for _, c := range removed {
		if c.Head.Kind == multilog.GoalM {
			sigma = append(sigma, c)
		} else {
			pi = append(pi, c)
		}
	}
	out := append(flatRetract(&next.Sigma, sigma), flatRetract(&next.Pi, pi)...)
	for _, c := range added {
		if err := next.AddClause(c); err != nil {
			t.Fatal(err)
		}
	}
	return next, out
}

func mustClause(t *testing.T, src string) multilog.Clause {
	t.Helper()
	db, err := multilog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cs := append(db.Sigma, db.Pi...)
	if len(cs) != 1 {
		t.Fatalf("%q: want one Σ or Π clause, got %d", src, len(cs))
	}
	return cs[0]
}

// randomVersionWrite draws a write against db: asserts of fresh Σ facts, Σ
// rules, Π facts and Π rules, of copies of stored clauses (duplicates), and
// retracts of stored clauses — base ones or ones added since — and of absent
// ones, a few clauses at a time and now and then both at once.
func randomVersionWrite(t *testing.T, r *rand.Rand, db *multilog.Database, step int) (added, removed []multilog.Clause) {
	fresh := func() multilog.Clause {
		lvl, lo := workload.Level(1+r.Intn(2)), workload.Level(r.Intn(1))
		switch r.Intn(4) {
		case 0:
			return mustClause(t, fmt.Sprintf("%s[p%d(w%d: a -%s-> v%d)].", lvl, r.Intn(3), r.Intn(step+1), lvl, r.Intn(3)))
		case 1: // reading a Π predicate too, whose rules come and go
			i := r.Intn(3)
			return mustClause(t, fmt.Sprintf("%s[r%d(K: b -%s-> V)] :- %s[p%d(K: a -C-> V)] << opt, pr%d(K).", lvl, i, lvl, lo, r.Intn(3), i))
		case 2:
			return mustClause(t, fmt.Sprintf("pf(f%d).", r.Intn(step+1)))
		default:
			return mustClause(t, fmt.Sprintf("pr%d(X) :- pf(X).", r.Intn(4)))
		}
	}
	stored := func() (multilog.Clause, bool) {
		cs := db.Sigma
		if len(db.Pi) > 0 && r.Intn(3) == 0 {
			cs = db.Pi
		}
		if len(cs) == 0 {
			return multilog.Clause{}, false
		}
		return cs[r.Intn(len(cs))], true
	}
	for n := 1 + r.Intn(2); n > 0; n-- {
		switch k := r.Intn(10); {
		case k < 4:
			added = append(added, fresh())
		case k < 5:
			if c, ok := stored(); ok {
				added = append(added, c) // a second copy: a retract takes both
			}
		case k < 9:
			if c, ok := stored(); ok {
				removed = append(removed, c)
			}
		default:
			removed = append(removed, mustClause(t, "u0[nosuch(k: a -u0-> v)]."))
		}
	}
	return added, removed
}

// sameClauses reports whether two databases hold equal Σ and Π clauses in
// the same order: what String would render alike, without rendering.
func sameClauses(a, b *multilog.Database) bool {
	eq := func(x, y multilog.Clause) bool { return x.Equal(y) }
	return slices.EqualFunc(a.Sigma, b.Sigma, eq) && slices.EqualFunc(a.Pi, b.Pi, eq)
}

// render is a clause list, one clause a line.
func render(cs []multilog.Clause) string {
	out := ""
	for _, c := range cs {
		out += c.String() + "\n"
	}
	return out
}

// flatReads reports whether a Σ body of db reads the classical predicate
// pred: SigmaReads by a walk of the flat database.
func flatReads(db *multilog.Database, pred string) bool {
	for _, c := range db.Sigma {
		for _, g := range c.Body {
			if g.Kind == multilog.GoalP && g.P.Pred == pred {
				return true
			}
		}
	}
	return false
}

// TestVersionMatchesFlatDatabase is the persistent clause set's oracle: on
// seeded sequences of writes over a generated program — every kind of clause,
// duplicates, retracts of absent clauses, of base clauses and of clauses added
// since the base, each write sometimes made from an earlier version than the
// last — every version renders byte for byte what the flat path (Clone, the
// in-place filter, AddClause) makes of its parent's flat database, removes
// the same clauses in the same order, counts the same and has a Σ body read
// the same Π predicates (SigmaReads). Every earlier
// version, its delta materialized afresh, still renders what it did.
func TestVersionMatchesFlatDatabase(t *testing.T) {
	const writes = 320
	for seed := int64(1); seed <= 2; seed++ {
		src := workload.ProgramSource(workload.ProgramConfig{Levels: 3, Facts: 60, Rules: 4, Preds: 3, Poly: 0.3, Seed: seed})
		db, err := multilog.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Poset(); err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		versions := []*multilog.Version{multilog.NewVersion(db)}
		refs := []*multilog.Database{db.Clone()}
		rendered := []string{db.String()}
		folds := 0
		for step := 0; step < writes; step++ {
			from := len(versions) - 1
			if r.Intn(8) == 0 {
				from = r.Intn(len(versions))
			}
			added, removed := randomVersionWrite(t, r, refs[from], step)
			next, got, err := versions[from].Write(added, removed)
			if err != nil {
				t.Fatal(err)
			}
			ref, wantRemoved := flatWrite(t, refs[from], added, removed)
			what := fmt.Sprintf("seed %d write %d (from version %d: +%d -%d)", seed, step, from, len(added), len(removed))
			want := ref.String()
			if g := next.Database().String(); g != want {
				t.Fatalf("%s: the version renders\n%s\nthe flat database\n%s", what, g, want)
			}
			if g, w := render(got), render(wantRemoved); g != w {
				t.Fatalf("%s: the version removed\n%swant\n%s", what, g, w)
			}
			if l, s, p := next.Counts(); l != len(ref.Lambda) || s != len(ref.Sigma) || p != len(ref.Pi) {
				t.Fatalf("%s: counts %d/%d/%d, want %d/%d/%d", what, l, s, p, len(ref.Lambda), len(ref.Sigma), len(ref.Pi))
			}
			for _, pred := range []string{"pf", "pr0", "pr1", "pr2", "pr3"} {
				if g, w := next.SigmaReads(pred), flatReads(ref, pred); g != w {
					t.Fatalf("%s: SigmaReads(%s) = %v, a walk of Σ says %v", what, pred, g, w)
				}
			}
			if multilog.VersionBase(next) != multilog.VersionBase(versions[from]) {
				folds++
			}
			versions, refs, rendered = append(versions, next), append(refs, ref), append(rendered, want)
			if !sameClauses(multilog.Rematerialize(versions[from]), refs[from]) {
				t.Fatalf("%s: the write changed the version it was made from:\n%s\nwant\n%s",
					what, multilog.Rematerialize(versions[from]), rendered[from])
			}
			if step%16 == 15 {
				for i, v := range versions {
					if !sameClauses(multilog.Rematerialize(v), refs[i]) {
						t.Fatalf("%s: version %d now holds\n%s\nwant\n%s", what, i, multilog.Rematerialize(v), rendered[i])
					}
				}
			}
		}
		for i, v := range versions {
			if g := multilog.Rematerialize(v).String(); g != rendered[i] {
				t.Fatalf("seed %d: version %d renders\n%s\nwant\n%s", seed, i, g, rendered[i])
			}
		}
		if folds < 3 {
			t.Errorf("seed %d: %d writes folded %d times, want at least 3", seed, writes, folds)
		}
		t.Logf("seed %d: %d writes, %d folds, |Σ| %d → %d", seed, writes, folds, len(db.Sigma), len(refs[len(refs)-1].Sigma))
	}
}

// TestVersionUnderReaders: readers materialize, render and reduce a version,
// and the latest one published, while a writer derives version after version
// from it — asserting and retracting base and added facts, across folds. The
// version read keeps rendering what it did; run it under -race (make race).
func TestVersionUnderReaders(t *testing.T) {
	db := multilog.D1()
	if _, err := db.Poset(); err != nil { // versions share the cached lattice
		t.Fatal(err)
	}
	v0 := multilog.NewVersion(db)
	want := db.String()
	var latest atomic.Pointer[multilog.Version]
	latest.Store(v0)
	stop := make(chan struct{})
	var readers, started sync.WaitGroup
	defer readers.Wait()
	defer close(stop)
	for i := 0; i < 3; i++ {
		readers.Add(1)
		started.Add(1)
		go func() {
			defer readers.Done()
			var once sync.Once // the writer starts once every reader has read
			defer once.Do(started.Done)
			for n := 0; ; n++ {
				if n == 1 {
					once.Do(started.Done)
				}
				select {
				case <-stop:
					return
				default:
				}
				if got := v0.Database().String(); got != want {
					t.Errorf("the version read changed under a reader:\n%s\nwant\n%s", got, want)
					return
				}
				v := latest.Load()
				if _, s, _ := v.Counts(); s != len(v.Database().Sigma) {
					t.Errorf("a version counts %d Σ clauses and materializes %d", s, len(v.Database().Sigma))
					return
				}
				for _, v := range []*multilog.Version{v0, v} {
					if _, err := multilog.Reduce(v.Database(), "s"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	started.Wait()
	v, folds := v0, 0
	base := func(i int) multilog.Clause { return mustClause(t, fmt.Sprintf("c[p(w%d: a -c-> v)].", i)) }
	for i := 0; i < 200; i++ {
		next, _, err := v.Write([]multilog.Clause{base(i)}, nil)
		if err == nil && i%3 == 0 {
			// Retract the fact of an earlier write: once a fold has taken it
			// into the base, through the base's index.
			next, _, err = next.Write(nil, []multilog.Clause{base(i / 2)})
		}
		if err != nil {
			t.Fatal(err)
		}
		if multilog.VersionBase(next) != multilog.VersionBase(v) {
			folds++
		}
		v = next
		latest.Store(v)
	}
	if folds < 3 {
		t.Errorf("200 writes folded %d times, want at least 3", folds)
	}
	if got := v0.Database().String(); got != want {
		t.Errorf("the writer's versions reached the one read:\n%s\nwant\n%s", got, want)
	}
}
