package datalog

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/term"
)

// TestInternerUnderReaders is the interner's concurrency contract, meant for
// -race: readers match and list the facts of a published store while a clone
// of it — the same lineage, so the same interner — inserts tuples of new
// constants (the interner adds terms, keys and chunks), removes tuples and
// folds its delta. The readers see the published store exactly as it was,
// and query constants only the clone's writes interned, which match nothing
// in it.
func TestInternerUnderReaders(t *testing.T) {
	src := wideStore(t, 2, 200)
	want, facts := imageOf(src), src.Facts("r0")
	c := src.Clone()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Facts takes no lock, a Match the read lock: the reads of
				// the published directory are mostly unordered with the
				// writer's chunk publications.
				if got := src.Facts("r0"); !reflect.DeepEqual(got, facts) {
					t.Errorf("the published store lists r0 as %d facts, %v..., want %v...", len(got), got[:1], facts[:1])
					return
				}
				if i%8 != 0 {
					continue
				}
				for _, k := range []string{fmt.Sprintf("new%d", i%3000), fmt.Sprintf("k%d", i%200)} {
					q := NewAtom("r0", term.Const(k), term.Var("V"))
					n := 0
					src.Match(q, term.Subst{}, func(term.Subst) bool { n++; return true })
					if n != strings.Count(k, "k") {
						t.Errorf("%s matched %d tuples in the published store", q, n)
						return
					}
				}
			}
		}()
	}
	folds := 0
	for i := 0; i < 3000; i++ {
		before := c.rel("r0")
		if _, err := c.Insert(NewAtom("r0", term.Const(fmt.Sprintf("new%d", i)), term.Const("v"))); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			c.Remove(NewAtom("r1", term.Const(fmt.Sprintf("k%d", i/3%200)), term.Const(fmt.Sprintf("v%d", i/3%200%7))))
		}
		if _, err := c.Insert(NewAtom("r0", term.Const(fmt.Sprintf("tmp%d", i)), term.Const("v"))); err != nil {
			t.Fatal(err)
		}
		c.Remove(NewAtom("r0", term.Const(fmt.Sprintf("tmp%d", i)), term.Const("v")))
		if before.base != nil && c.rel("r0").base == nil {
			folds++
		}
		if i%500 == 499 { // a new generation: the clone's own relations become a base
			c = c.Clone()
		}
	}
	close(stop)
	readers.Wait()
	if !reflect.DeepEqual(imageOf(src), want) {
		t.Fatal("the published store changed under its clone's writes")
	}
	if got := len(c.Facts("r0")); got != 3200 {
		t.Fatalf("the clone holds %d facts of r0, want 3200", got)
	}
	if folds == 0 {
		t.Fatal("the clone's delta of r0 never folded")
	}
	t.Logf("%d terms interned, %d folds of r0", src.in.Len(), folds)
}
