package benchreport

import (
	"strings"
	"testing"
)

const sample = `
goos: linux
goarch: amd64
pkg: repro
BenchmarkFig2ViewAtU-8         	  150000	      7985 ns/op	    3456 B/op	      61 allocs/op
BenchmarkNaiveVsSemiNaive/n=64/eval=seminaive         	     166	   7211804 ns/op
BenchmarkNaiveVsSemiNaive/n=64/eval=naive             	      12	  93383271 ns/op
BenchmarkNaiveVsSemiNaive/n=128/eval=seminaive        	      33	  34433499 ns/op
BenchmarkNaiveVsSemiNaive/n=128/eval=naive            	       2	 907200058 ns/op
BenchmarkBeliefModesScaling/n=100/mode=fir            	   90000	     11740 ns/op	   10240 B/op	     120 allocs/op
PASS
ok  	repro	31.106s
`

func TestParse(t *testing.T) {
	rs, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 6 {
		t.Fatalf("parsed %d results", len(rs))
	}
	first := rs[0]
	if first.Name != "Fig2ViewAtU" || first.Group != "Fig2ViewAtU" || first.Case != "" {
		t.Errorf("first = %+v", first)
	}
	if first.Iterations != 150000 || first.NsPerOp != 7985 || first.BytesPerOp != 3456 || first.AllocsPerOp != 61 {
		t.Errorf("first metrics = %+v", first)
	}
	semi := rs[1]
	if semi.Group != "NaiveVsSemiNaive" || semi.Case != "n=64/eval=seminaive" {
		t.Errorf("semi = %+v", semi)
	}
	if semi.BytesPerOp != -1 {
		t.Errorf("missing memory stats must be -1, got %d", semi.BytesPerOp)
	}
}

func TestHumanNs(t *testing.T) {
	cases := map[float64]string{
		500:    "500 ns",
		7985:   "8.0 µs",
		7.2e6:  "7.20 ms",
		9.99e9: "9.99 s",
	}
	for ns, want := range cases {
		if got := HumanNs(ns); got != want {
			t.Errorf("HumanNs(%v) = %q, want %q", ns, got, want)
		}
	}
}

func TestRender(t *testing.T) {
	rs, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	out := Render(rs)
	for _, want := range []string{
		"### Fig2ViewAtU",
		"### NaiveVsSemiNaive",
		"| n=64/eval=naive | 93.38 ms |",
		"| n=100/mode=fir | 11.7 µs | 10240 | 120 |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	// Group order follows first appearance.
	if strings.Index(out, "Fig2ViewAtU") > strings.Index(out, "NaiveVsSemiNaive") {
		t.Error("group order not preserved")
	}
}

func TestRatios(t *testing.T) {
	rs, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	out := Ratios(rs, "NaiveVsSemiNaive", "eval", "seminaive")
	for _, want := range []string{"n=64: eval=naive is 12.9x", "n=128: eval=naive is 26.3x"} {
		if !strings.Contains(out, want) {
			t.Errorf("Ratios missing %q:\n%s", want, out)
		}
	}
}

func TestParseTolerantOfGarbage(t *testing.T) {
	rs, err := Parse(strings.NewReader("Benchmark\nBenchmarkX 12 notanumber ns/op\nBenchmarkY abc 5 ns/op\nnothing\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Errorf("garbage should parse to nothing, got %v", rs)
	}
}

func TestFilterCase(t *testing.T) {
	results := []Result{
		{Group: "G", Case: "n=1/kind=a"},
		{Group: "G", Case: "n=12/kind=a"},
		{Group: "G", Case: "n=1/kind=b"},
	}
	got := FilterCase(results, "n=1")
	if len(got) != 2 || got[0].Case != "n=1/kind=a" || got[1].Case != "n=1/kind=b" {
		t.Fatalf("FilterCase must match whole components only: %+v", got)
	}
	if len(FilterCase(results, "n=")) != 0 {
		t.Fatal("partial component must not match")
	}
}

// TestMetricRatiosOnAllocations: the standard allocation columns gate like
// any custom metric, and a row without them (no b.ReportAllocs) is skipped
// rather than read as -1.
func TestMetricRatiosOnAllocations(t *testing.T) {
	rs, err := Parse(strings.NewReader(`
BenchmarkAdvanceFactWrite/advance=delta-2   100   7700000 ns/op   8500000 B/op   9700 allocs/op
BenchmarkAdvanceFactWrite/advance=full-2      1 1800000000 ns/op 1200000000 B/op 9700000 allocs/op
BenchmarkAdvanceFactWrite/advance=bare-2      1 1800000000 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	got := MetricRatios(rs, "AdvanceFactWrite", "advance", "delta", "allocs/op")
	if len(got) != 1 || got["advance=full"] != 1000 {
		t.Fatalf("allocs/op ratios = %v, want advance=full: 1000", got)
	}
	if got := MetricRatios(rs, "AdvanceFactWrite", "advance", "delta", "B/op"); len(got) != 1 || got["advance=full"] < 141 || got["advance=full"] > 142 {
		t.Fatalf("B/op ratios = %v", got)
	}
}
