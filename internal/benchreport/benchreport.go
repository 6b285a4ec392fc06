// Package benchreport parses `go test -bench` output and renders the
// grouped markdown tables EXPERIMENTS.md is built from, so the committed
// numbers are regenerated rather than transcribed.
package benchreport

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name        string // full name without the Benchmark prefix and -N suffix
	Group       string // the part before the first '/', e.g. "BeliefModesScaling"
	Case        string // the part after the first '/', e.g. "n=100/mode=fir"
	Iterations  int64
	NsPerOp     float64
	BytesPerOp  int64 // -1 when absent
	AllocsPerOp int64 // -1 when absent
	// Metrics holds every other `<value> <unit>` pair on the line — the
	// custom b.ReportMetric units (e.g. "p50-read-ns", "hit-rate").
	Metrics map[string]float64 `json:",omitempty"`
}

// Parse reads benchmark lines from r, ignoring everything else.
func Parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		// Strip the GOMAXPROCS suffix ("-8") if present.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		if fields[3] != "ns/op" {
			continue
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		res := Result{Name: name, Iterations: iters, NsPerOp: ns, BytesPerOp: -1, AllocsPerOp: -1}
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				res.BytesPerOp = int64(v)
			case "allocs/op":
				res.AllocsPerOp = int64(v)
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[fields[i+1]] = v
			}
		}
		if i := strings.IndexByte(name, '/'); i >= 0 {
			res.Group, res.Case = name[:i], name[i+1:]
		} else {
			res.Group, res.Case = name, ""
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// HumanNs renders a duration in ns as the nearest convenient unit.
func HumanNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2f s", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2f ms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1f µs", ns/1e3)
	default:
		return fmt.Sprintf("%.0f ns", ns)
	}
}

// Render prints one markdown table per benchmark group, preserving input
// order within groups and ordering groups by first appearance.
func Render(results []Result) string {
	groups := map[string][]Result{}
	var order []string
	for _, r := range results {
		if _, ok := groups[r.Group]; !ok {
			order = append(order, r.Group)
		}
		groups[r.Group] = append(groups[r.Group], r)
	}
	var b strings.Builder
	for _, g := range order {
		fmt.Fprintf(&b, "### %s\n\n", g)
		rs := groups[g]
		withMem := false
		for _, r := range rs {
			if r.BytesPerOp >= 0 {
				withMem = true
			}
		}
		if withMem {
			b.WriteString("| case | time/op | B/op | allocs/op |\n|------|--------:|-----:|----------:|\n")
		} else {
			b.WriteString("| case | time/op |\n|------|--------:|\n")
		}
		for _, r := range rs {
			label := r.Case
			if label == "" {
				label = "-"
			}
			if withMem {
				fmt.Fprintf(&b, "| %s | %s | %d | %d |\n", label, HumanNs(r.NsPerOp), r.BytesPerOp, r.AllocsPerOp)
			} else {
				fmt.Fprintf(&b, "| %s | %s |\n", label, HumanNs(r.NsPerOp))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// MetricRatios computes, within one group and for one metric (a custom
// ReportMetric unit, or the standard "ns/op", "B/op" and "allocs/op" — the
// last two only on rows whose benchmark reports allocations), the ratio
// variant/baseline per case prefix: how many times larger the metric is for
// each dim value than for dim=base. Returned keys are "prefix|dim=val"
// ("dim=val" when the prefix is empty).
func MetricRatios(results []Result, group, dim, base, metric string) map[string]float64 {
	value := func(r Result) (float64, bool) {
		switch metric {
		case "ns/op":
			return r.NsPerOp, true
		case "B/op":
			return float64(r.BytesPerOp), r.BytesPerOp >= 0
		case "allocs/op":
			return float64(r.AllocsPerOp), r.AllocsPerOp >= 0
		}
		v, ok := r.Metrics[metric]
		return v, ok
	}
	baseline := map[string]float64{}
	type variant struct {
		key string
		val float64
	}
	variants := map[string][]variant{}
	for _, r := range results {
		if r.Group != group {
			continue
		}
		v, ok := value(r)
		if !ok {
			continue
		}
		var prefix []string
		val := ""
		for _, p := range strings.Split(r.Case, "/") {
			if strings.HasPrefix(p, dim+"=") {
				val = strings.TrimPrefix(p, dim+"=")
			} else {
				prefix = append(prefix, p)
			}
		}
		k := strings.Join(prefix, "/")
		if val == base {
			baseline[k] = v
		} else if val != "" {
			key := dim + "=" + val
			if k != "" {
				key = k + "|" + key
			}
			variants[k] = append(variants[k], variant{key: key, val: v})
		}
	}
	out := map[string]float64{}
	for k, vs := range variants {
		b, ok := baseline[k]
		if !ok || b <= 0 {
			continue
		}
		for _, v := range vs {
			out[v.key] = v.val / b
		}
	}
	return out
}

// FilterCase returns the results whose Case contains component as one of
// its '/'-separated parts — e.g. component "facts=320" keeps exactly the
// cases of that size. Gates use it to pin a ratio assertion to the scale
// point where the compared arms are past their fixed costs.
func FilterCase(results []Result, component string) []Result {
	var out []Result
	for _, r := range results {
		for _, p := range strings.Split(r.Case, "/") {
			if p == component {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// Ratios computes, for groups whose cases share a parameter prefix and end
// with a distinguishing suffix (e.g. "n=64/eval=seminaive" vs
// "n=64/eval=naive"), the ratio table baseline/variant. The variant whose
// suffix equals base is the denominator.
func Ratios(results []Result, group, dim, base string) string {
	type key = string
	baseline := map[key]float64{}
	variants := map[key]map[string]float64{}
	var keys []key
	for _, r := range results {
		if r.Group != group {
			continue
		}
		parts := strings.Split(r.Case, "/")
		var prefix []string
		val := ""
		for _, p := range parts {
			if strings.HasPrefix(p, dim+"=") {
				val = strings.TrimPrefix(p, dim+"=")
			} else {
				prefix = append(prefix, p)
			}
		}
		k := strings.Join(prefix, "/")
		if val == base {
			if _, ok := baseline[k]; !ok {
				keys = append(keys, k)
			}
			baseline[k] = r.NsPerOp
			continue
		}
		if variants[k] == nil {
			variants[k] = map[string]float64{}
		}
		variants[k][val] = r.NsPerOp
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "ratios vs %s=%s in %s:\n", dim, base, group)
	for _, k := range keys {
		for val, ns := range variants[k] {
			if baseline[k] > 0 {
				fmt.Fprintf(&b, "  %s: %s=%s is %.1fx\n", k, dim, val, ns/baseline[k])
			}
		}
	}
	return b.String()
}
