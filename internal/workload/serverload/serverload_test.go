package serverload

import (
	"math"
	"testing"
	"time"
)

// TestPercentileZeroSamples pins the zero-sample contract: an empty (or
// nil) sample set yields 0, never a panic, a negative index or NaN.
func TestPercentileZeroSamples(t *testing.T) {
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := percentileNS(nil, q); got != 0 {
			t.Errorf("percentileNS(nil, %v) = %v, want 0", q, got)
		}
		if got := percentileNS([]int64{}, q); got != 0 {
			t.Errorf("percentileNS([], %v) = %v, want 0", q, got)
		}
	}
	if got := percentileNS([]int64{42}, 0.99); got != 42 {
		t.Errorf("single-sample p99 = %v, want 42ns", got)
	}
}

// TestPercentileNearestRank pins the rank: the ⌈q·n⌉-th smallest sample,
// so a rank q·n that falls between two samples rounds up, never down.
func TestPercentileNearestRank(t *testing.T) {
	ten := []int64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		ns   []int64
		q    float64
		want time.Duration
	}{
		{[]int64{3, 1, 2}, 0.5, 2},
		{ten, 0.99, 10},
		{ten, 0.5, 5},
		{ten, 0, 1},
	} {
		if got := percentileNS(c.ns, c.q); got != c.want {
			t.Errorf("percentileNS(%v, %v) = %d, want %d", c.ns, c.q, got, c.want)
		}
	}
}

// TestBucketWindows folds a crafted sample timeline into fixed windows and
// checks the per-window admitted/shed/stale counts — including that a
// window with no samples at all reports zeroes, not NaN.
func TestBucketWindows(t *testing.T) {
	w := 100 * time.Millisecond
	samples := []sample{
		{at: 50 * time.Millisecond, lat: 10 * time.Millisecond},
		{at: 150 * time.Millisecond, shed: true},
		{at: 160 * time.Millisecond, lat: 20 * time.Millisecond, stale: true},
		// window 2 (200-300ms) is deliberately empty
		{at: 310 * time.Millisecond, lat: 30 * time.Millisecond},
	}
	wins := bucketWindows(samples, w, 350*time.Millisecond)
	if len(wins) != 4 {
		t.Fatalf("got %d windows, want 4", len(wins))
	}
	type expect struct {
		admitted, shed, stale int64
		p99                   time.Duration
	}
	want := []expect{
		{admitted: 1, p99: 10 * time.Millisecond},
		{admitted: 1, shed: 1, stale: 1, p99: 20 * time.Millisecond},
		{}, // empty window: all zero
		{admitted: 1, p99: 30 * time.Millisecond},
	}
	for i, e := range want {
		got := wins[i]
		if got.Start != time.Duration(i)*w {
			t.Errorf("window %d start = %s, want %s", i, got.Start, time.Duration(i)*w)
		}
		if got.Admitted != e.admitted || got.Shed != e.shed || got.Stale != e.stale {
			t.Errorf("window %d counts = admitted %d shed %d stale %d, want %d/%d/%d",
				i, got.Admitted, got.Shed, got.Stale, e.admitted, e.shed, e.stale)
		}
		if got.P99 != e.p99 {
			t.Errorf("window %d p99 = %s, want %s", i, got.P99, e.p99)
		}
		if math.IsNaN(float64(got.P50)) || got.P50 < 0 {
			t.Errorf("window %d p50 = %v, want a non-negative duration", i, got.P50)
		}
	}

	// A sample stamped past the elapsed bound folds into the last window
	// instead of indexing out of range.
	wins = bucketWindows([]sample{{at: time.Second, lat: time.Millisecond}}, w, 350*time.Millisecond)
	if wins[len(wins)-1].Admitted != 1 {
		t.Error("out-of-range sample not clamped into the final window")
	}
}
