// Command benchreport renders `go test -bench` output as the markdown
// tables EXPERIMENTS.md uses, emits machine-readable JSON artifacts
// (BENCH_*.json), and gates on cross-arm metric ratios.
//
// Usage:
//
//	go test -bench=. -benchmem . | tee bench_output.txt
//	benchreport -in bench_output.txt
//	benchreport -in bench_output.txt -ratio NaiveVsSemiNaive/eval/seminaive
//	benchreport -in bench_output.txt -json BENCH_overload.json
//	benchreport -in bench_output.txt \
//	    -gate 'OverloadStorm/admission/off:goodput>=1.5'
//
// A -gate spec group/dim/base:metric>=min asserts that, within the group,
// every dim variant's metric is at least min times the dim=base arm's —
// i.e. the base arm beats each variant by ≥ min on that metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/benchreport"
)

func main() {
	in := flag.String("in", "-", "benchmark output file ('-' for stdin)")
	ratio := flag.String("ratio", "", "optional ratio spec group/dim/base, e.g. NaiveVsSemiNaive/eval/seminaive")
	jsonOut := flag.String("json", "", "write parsed results as JSON to this path ('-' for stdout)")
	gate := flag.String("gate", "", "ratio gate spec group/dim/base:metric>=min; exits 1 when violated")
	flag.Parse()

	if err := run(*in, *ratio, *jsonOut, *gate, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run(in, ratio, jsonOut, gate string, out io.Writer) error {
	var r io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	results, err := benchreport.Parse(r)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines in %s", in)
	}
	if jsonOut != "" {
		raw, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		raw = append(raw, '\n')
		if jsonOut == "-" {
			if _, err := out.Write(raw); err != nil {
				return err
			}
		} else if err := os.WriteFile(jsonOut, raw, 0o644); err != nil {
			return err
		}
	}
	if gate != "" {
		if err := checkGate(results, gate, out); err != nil {
			return err
		}
	}
	if ratio != "" {
		parts := strings.Split(ratio, "/")
		if len(parts) != 3 {
			return fmt.Errorf("ratio spec must be group/dim/base")
		}
		fmt.Fprint(out, benchreport.Ratios(results, parts[0], parts[1], parts[2]))
		return nil
	}
	if jsonOut == "" && gate == "" {
		fmt.Fprint(out, benchreport.Render(results))
	}
	return nil
}

// checkGate parses "group[case]/dim/base:metric>=min" and fails unless
// every dim variant's metric is ≥ min times the base arm's. The optional
// [case] component restricts the comparison to cases containing that
// '/'-separated part (e.g. "[facts=320]" pins the gate to one size).
func checkGate(results []benchreport.Result, gate string, out io.Writer) error {
	head, bound, ok := strings.Cut(gate, ":")
	if !ok {
		return fmt.Errorf("gate spec must be group[case]/dim/base:metric>=min")
	}
	parts := strings.Split(head, "/")
	metric, minStr, ok := strings.Cut(bound, ">=")
	if len(parts) != 3 || !ok {
		return fmt.Errorf("gate spec must be group[case]/dim/base:metric>=min")
	}
	if group, filter, found := strings.Cut(parts[0], "["); found {
		component, closed := strings.CutSuffix(filter, "]")
		if !closed {
			return fmt.Errorf("gate case filter %q must end with ']'", filter)
		}
		parts[0] = group
		results = benchreport.FilterCase(results, component)
	}
	minRatio, err := strconv.ParseFloat(minStr, 64)
	if err != nil {
		return fmt.Errorf("gate minimum %q: %w", minStr, err)
	}
	ratios := benchreport.MetricRatios(results, parts[0], parts[1], parts[2], metric)
	if len(ratios) == 0 {
		return fmt.Errorf("gate %s matched no variant pairs", gate)
	}
	for key, got := range ratios {
		fmt.Fprintf(out, "gate %s: %s is %.2fx the %s=%s arm (want >= %.2fx)\n",
			metric, key, got, parts[1], parts[2], minRatio)
		if got < minRatio {
			return fmt.Errorf("gate violated: %s %s ratio %.2f < %.2f", key, metric, got, minRatio)
		}
	}
	return nil
}
