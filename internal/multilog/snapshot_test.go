package multilog

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/resource"
)

// TestDatabaseClone pins the contract Clone promises: the clone's component
// slices are its own, so growing, filtering or replacing its clauses never
// reaches back into the original — the server's copy-on-write update path
// keeps answering queries from the original while the clone is being
// changed — and the clauses themselves are shared, for a parsed clause is
// immutable.
func TestDatabaseClone(t *testing.T) {
	db := D1()
	before := db.String()
	c := db.Clone()
	if c.String() != before {
		t.Fatalf("clone differs from original:\n%s\nvs\n%s", c.String(), before)
	}
	for i, sc := range c.Sigma {
		if &c.Sigma[i] == &db.Sigma[i] {
			t.Fatal("the clone shares the original's Σ slice")
		}
		if len(sc.Body) > 0 && &sc.Body[0] != &db.Sigma[i].Body[0] {
			t.Fatalf("the clone copied the body of %s", sc)
		}
	}

	// Grow every component of the clone.
	extra, err := Parse(`
		level(t). order(s, t).
		t[p(k2: a -t-> w)].
		q(extra).
		?- s[p(K: a -C-> V)] << fir.
	`)
	if err != nil {
		t.Fatal(err)
	}
	c.Lambda = append(c.Lambda, extra.Lambda...)
	c.Sigma = append(c.Sigma, extra.Sigma...)
	c.Pi = append(c.Pi, extra.Pi...)
	c.Queries = append(c.Queries, extra.Queries...)
	// Filter Σ in place, as a retract does, and replace a Π clause.
	kept := c.Sigma[:0]
	for _, sc := range c.Sigma {
		if len(sc.Body) > 0 {
			kept = append(kept, sc)
		}
	}
	c.Sigma = kept
	c.Pi[0] = extra.Pi[0]

	if db.String() != before {
		t.Errorf("mutating the clone changed the original:\n%s\nwant\n%s", db.String(), before)
	}
	// The clone must still be a working database.
	if _, err := c.Poset(); err != nil {
		t.Fatalf("clone poset: %v", err)
	}
}

// TestDatabaseCloneUnderReaders is Clone's contract under the race detector:
// readers render and Reduce the original while a writer clones it, asserts
// into the clone and retracts from it in place, as the server's update path
// does beside the snapshot it serves.
func TestDatabaseCloneUnderReaders(t *testing.T) {
	db := D1()
	if _, err := db.Poset(); err != nil { // readers only read the cached lattice
		t.Fatal(err)
	}
	want := db.String()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	defer readers.Wait()
	defer close(stop)
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := db.String(); got != want {
					t.Errorf("the original changed under a reader:\n%s\nwant\n%s", got, want)
					return
				}
				if _, err := Reduce(db, "s"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		next := db.Clone()
		fact := mustSigmaFact(t, fmt.Sprintf("c[p(w%d: a -c-> v)].", i))
		if err := next.AddClause(fact); err != nil {
			t.Fatal(err)
		}
		if last := next.Sigma[len(next.Sigma)-1]; !last.Equal(fact) {
			t.Fatalf("the clone's Σ ends in %s, want %s", last, fact)
		}
		// Retract the fact and every other Σ fact, filtering in place.
		kept := next.Sigma[:0]
		for _, c := range next.Sigma {
			if !c.IsFact() {
				kept = append(kept, c)
			}
		}
		next.Sigma = kept
		next.Pi = next.Pi[:0]
	}
	if got := db.String(); got != want {
		t.Errorf("the writer's clones reached the original:\n%s\nwant\n%s", got, want)
	}
}

// TestQueryPreparedAgreesWithQueryContext checks that the read-only
// prepared path computes exactly the answers of the mutating path, for
// queries both inside and outside Σ's predicate set.
func TestQueryPreparedAgreesWithQueryContext(t *testing.T) {
	queries := []string{
		"c[p(k: a -R-> v)] << opt",
		"L[p(K: a -C-> V)] << cau",
		"s[p(K: a -C-> V)] << fir",
		"c[p(k: a -C-> V)]",
		"c[nosuch(K: a -C-> V)] << cau", // predicate outside Σ: no lazy registration needed
		"q(X)",
	}
	for _, src := range queries {
		q, err := ParseGoals(src)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Reduce(D1(), "s")
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.QueryContext(context.Background(), q, resource.Limits{})
		if err != nil {
			t.Fatalf("%s: QueryContext: %v", src, err)
		}

		shared, err := Reduce(D1(), "s")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := shared.QueryPrepared(context.Background(), q, resource.Limits{}); err == nil {
			t.Fatalf("%s: QueryPrepared before Prepare should fail", src)
		}
		if err := shared.Prepare(context.Background(), resource.Limits{}); err != nil {
			t.Fatal(err)
		}
		// A governed call reports its matching work; an ungoverned call
		// takes the nil-governor fast path and reports zero stats.
		got, stats, err := shared.QueryPrepared(context.Background(), q, resource.Limits{MaxSteps: 1 << 20})
		if err != nil {
			t.Fatalf("%s: QueryPrepared: %v", src, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: prepared answers %v, want %v", src, got, want)
		}
		if stats.Steps == 0 {
			t.Errorf("%s: governed prepared stats report no steps", src)
		}
	}
}

// TestQueryPreparedConcurrent hammers one prepared reduction from many
// goroutines (run under -race) and checks every one computes the same
// answer set. Besides Figure 11's query the goroutines run a join, an '='
// goal and b-goals over a variable level: every path on which match binds
// into its substitution and undoes it, over one shared model.
func TestQueryPreparedConcurrent(t *testing.T) {
	red, err := Reduce(D1(), "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := red.Prepare(context.Background(), resource.Limits{}); err != nil {
		t.Fatal(err)
	}
	queries := []Query{D1Query()}
	for _, src := range []string{
		"u[p(K: a -C-> V)], L[p(K: a -C2-> V2)] << cau",
		"L[p(K: a -C-> V)] << opt, M = L",
		"L[p(K: a -C-> V)] << fir, L2[p(K: a -C2-> V)] << cau, L != L2",
	} {
		q, err := ParseGoals(src)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	want := make([][]Answer, len(queries))
	for i, q := range queries {
		if want[i], _, err = red.QueryPrepared(context.Background(), q, resource.Limits{}); err != nil {
			t.Fatal(err)
		}
		if len(want[i]) == 0 {
			t.Fatalf("query %v answers nothing", q)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queries {
				j := (i + j) % len(queries)
				got, _, err := red.QueryPrepared(context.Background(), queries[j], resource.Limits{})
				if err != nil {
					errs <- err
					return
				}
				if fmt.Sprint(got) != fmt.Sprint(want[j]) {
					errs <- fmt.Errorf("query %v answers %v, want %v", queries[j], got, want[j])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestQueryPreparedGoverned checks the matching phase respects limits and
// comes back with a typed error plus partial stats.
func TestQueryPreparedGoverned(t *testing.T) {
	red, err := Reduce(D1(), "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := red.Prepare(context.Background(), resource.Limits{}); err != nil {
		t.Fatal(err)
	}
	_, stats, err := red.QueryPrepared(context.Background(), D1Query(), resource.Limits{MaxSteps: 1})
	if err == nil || !resource.IsLimit(err) {
		t.Fatalf("err = %v, want a resource-limit stop", err)
	}
	if !stats.Truncated {
		t.Error("stats not marked truncated")
	}
}
