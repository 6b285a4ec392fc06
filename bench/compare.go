package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the builder's acceptance run computes spreads with.
func quartiles(values []float64) (q1, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		return d[0], d[0]
	}
	at := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

// verdict compares the runs of one metric on one workload. worsening is
// how far b's median is on the wrong side of a's, as a share of a's.
func verdict(d metricDef, a, b []float64) (worsening, spreadSeen float64, v string) {
	ma, mb := median(a), median(b)
	worsening = (mb - ma) / ma
	if d.better == "higher" {
		worsening = -worsening
	}
	spreadSeen = max(spread(a), spread(b))
	switch {
	case spreadSeen > d.bound:
		v = "unresolved"
	case worsening > d.bound:
		v = "worse"
	case worsening < -d.bound:
		v = "better"
	default:
		v = "same"
	}
	return worsening, spreadSeen, v
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// failRatioBound is by how much the share of failed operations may grow,
// as an absolute difference, before the second file counts as worse.
const failRatioBound = 0.001

// compareFiles prints one row per workload and end-to-end metric, and one
// for the workload's share of failed operations, and fails if any is worse
// in the second file.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		return fmt.Errorf("the files are not comparable: seed %d, %d s against seed %d, %d s",
			a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	fmt.Fprintf(w, "%-11s %-12s %12s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "a", "b", "worse by", "spread", "bound", "verdict")
	worse := 0
	for i := range workloads {
		name := workloads[i].name
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s is missing from one of the files", name)
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s %s is missing from one of the files", name, d.name)
			}
			worsening, sp, v := verdict(d, va, vb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-11s %-12s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				name, d.name, median(va), median(vb), 100*worsening, 100*sp, 100*d.bound, v)
		}
		fa, fb := float64(wa.Failed)/float64(wa.Attempted), float64(wb.Failed)/float64(wb.Attempted)
		v := "same"
		switch {
		case fb-fa > failRatioBound:
			v = "worse"
			worse++
		case fa-fb > failRatioBound:
			v = "better"
		}
		fmt.Fprintf(w, "%-11s %-12s %12.4f %12.4f %+8.4f %7s %7.3f  %s\n",
			name, "fail_ratio", fa, fb, fb-fa, "", failRatioBound, v)
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}
