package server

import (
	"fmt"
	"testing"

	"repro/internal/lattice"
	"repro/internal/multilog"
)

func ans(v string) []byte {
	return []byte(`[{"V":"` + v + `"}]`)
}

// changedRels is the Invalidate argument of a write that changed, per
// clearance it advanced, the relations named, with no tuples: an entry that
// reads one goes, patchable or not.
func changedRels(rels map[lattice.Label][]string) map[lattice.Label]multilog.DeltaReport {
	if rels == nil {
		return nil
	}
	out := make(map[lattice.Label]multilog.DeltaReport, len(rels))
	for u, preds := range rels {
		out[u] = multilog.DeltaReport{ChangedPreds: preds}
	}
	return out
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	k := func(i int) string { return cacheKey("db", 1, "s", "fir", fmt.Sprintf("q%d", i)) }

	c.Put(k(0), "db", "s", 1, nil, ans("a"), answerRows{})
	c.Put(k(1), "db", "s", 1, nil, ans("b"), answerRows{})
	// Touch k0 so k1 is the LRU victim.
	if _, ok := c.Get(k(0)); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Put(k(2), "db", "s", 1, nil, ans("c"), answerRows{})

	if _, ok := c.Get(k(1)); ok {
		t.Error("k1 survived eviction; LRU order wrong")
	}
	if _, ok := c.Get(k(0)); !ok {
		t.Error("recently used k0 was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Errorf("stats = %+v, want 1 eviction, 2/2 entries", st)
	}
}

// cachedEntry is one Put of an invalidation test and whether the write under
// test must drop it.
type cachedEntry struct {
	db        string
	clearance lattice.Label
	q         string
	epoch     uint64
	deps      []string
	dropped   bool
}

func entryKey(db string, clearance lattice.Label, q string) string {
	return cacheKey(db, 1, string(clearance), "fir", q)
}

// checkInvalidate stores entries, applies the write of epoch to db and checks
// that exactly the entries marked dropped are gone.
func checkInvalidate(t *testing.T, c *resultCache, entries []cachedEntry, epoch uint64, changed map[lattice.Label][]string) {
	t.Helper()
	want := 0
	for _, e := range entries {
		c.Put(entryKey(e.db, e.clearance, e.q), e.db, e.clearance, e.epoch, e.deps, ans(e.q), answerRows{})
		if e.dropped {
			want++
		}
	}
	if n, _ := c.Invalidate("db", epoch, changedRels(changed)); n != want {
		t.Fatalf("invalidated %d entries, want %d", n, want)
	}
	for _, e := range entries {
		if _, ok := c.Get(entryKey(e.db, e.clearance, e.q)); ok == e.dropped {
			t.Errorf("%s@%s %q at epoch %d: cached=%v, want %v", e.db, e.clearance, e.q, e.epoch, ok, !e.dropped)
		}
	}
	if st := c.Stats(); st.Invalidations != int64(want) {
		t.Errorf("invalidations = %d, want %d", st.Invalidations, want)
	}
}

// TestCacheInvalidateAll: a write that advanced no clearance drops every
// older entry of its database, whatever it reads, keeps the current epoch and
// other databases, and refuses later Puts below its epoch.
func TestCacheInvalidateAll(t *testing.T) {
	c := newResultCache(16)
	checkInvalidate(t, c, []cachedEntry{
		{"db", "s", "p", 1, []string{"mlrel_p_l0"}, true},
		{"db", "t", "const", 1, nil, true},
		{"db", "s", "now", 2, []string{"mlrel_p_l0"}, false},  // computed at the write's epoch
		{"other", "s", "p", 1, []string{"mlrel_p_l0"}, false}, // another database
	}, 2, nil)

	// The latest epoch gates late Puts from pre-write snapshots, per database.
	c.Put(entryKey("db", "s", "late"), "db", "s", 1, nil, ans("stale"), answerRows{})
	if _, ok := c.Get(entryKey("db", "s", "late")); ok {
		t.Error("Put from a superseded snapshot was accepted")
	}
	c.Put(entryKey("other", "s", "late"), "other", "s", 1, nil, ans("ok"), answerRows{})
	if _, ok := c.Get(entryKey("other", "s", "late")); !ok {
		t.Error("a write to db refused a Put to another database")
	}
}

// TestCacheInvalidatePreds pins the per-clearance contract: a write drops an
// older entry exactly when its clearance was not advanced or its deps meet the
// relations changed at its clearance, and refuses later Puts below its epoch
// whatever they read.
func TestCacheInvalidatePreds(t *testing.T) {
	c := newResultCache(16)
	checkInvalidate(t, c, []cachedEntry{
		{"db", "s", "p", 3, []string{"mlrel_p_l0", "mlbel_p_l1_opt"}, true}, // reads a changed relation
		{"db", "s", "q", 3, []string{"mlrel_q_l0"}, false},                  // reads none
		{"db", "s", "const", 3, nil, false},                                 // reads nothing at all
		{"db", "t", "q", 3, []string{"mlrel_q_l0"}, true},                   // t was not advanced
	}, 4, map[lattice.Label][]string{"s": {"mlbel_p_l0_fir", "mlrel_p_l0"}})

	late := entryKey("db", "s", "late")
	c.Put(late, "db", "s", 3, []string{"mlrel_q_l0"}, ans("stale"), answerRows{})
	if _, ok := c.Get(late); ok {
		t.Error("Put from a superseded snapshot with untouched deps was accepted")
	}
	c.Put(late, "db", "s", 4, []string{"mlrel_p_l0"}, ans("fresh"), answerRows{})
	if _, ok := c.Get(late); !ok {
		t.Error("Put at the write's epoch was refused")
	}
}

func TestCacheReset(t *testing.T) {
	c := newResultCache(16)
	if g := c.Generation("db"); g != 0 {
		t.Fatalf("fresh generation = %d, want 0", g)
	}
	c.Put(cacheKey("db", 0, "s", "fir", "q"), "db", "s", 5, []string{"mlrel_p_l0"}, ans("x"), answerRows{})
	c.Invalidate("db", 6, changedRels(map[lattice.Label][]string{"s": {"mlrel_p_l0"}}))

	if n := c.Reset("db"); n != 0 {
		t.Fatalf("reset dropped %d entries, want 0 (already invalidated)", n)
	}
	if g := c.Generation("db"); g != 1 {
		t.Fatalf("generation after reset = %d, want 1", g)
	}
	// The latest epoch is cleared: a new program's epoch-1 results must be
	// cacheable even though the old program saw higher epochs.
	key := cacheKey("db", 1, "s", "fir", "q")
	c.Put(key, "db", "s", 1, []string{"mlrel_p_l0"}, ans("new"), answerRows{})
	if _, ok := c.Get(key); !ok {
		t.Error("post-reset Put at epoch 1 was refused by the old program's latest epoch")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newResultCache(0)
	key := cacheKey("db", 1, "s", "fir", "q")
	c.Put(key, "db", "s", 1, nil, ans("x"), answerRows{})
	if _, ok := c.Get(key); ok {
		t.Error("disabled cache returned a hit")
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 1 {
		t.Errorf("stats = %+v, want empty with 1 miss", st)
	}
}

// TestCacheKeyInjection: length prefixes keep crafted components from
// colliding across field boundaries.
func TestCacheKeyInjection(t *testing.T) {
	a := cacheKey("db", 1, "s", "fir", "q")
	b := cacheKey("db", 1, "s", "f", "irq")
	if a == b {
		t.Fatalf("distinct (mode, query) pairs collided: %q", a)
	}
}
