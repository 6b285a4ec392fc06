// Command bench is the multilogd benchmark: four closed-loop workloads
// against a real multilogd child for the end-to-end metrics, and a traced
// in-process run with a mirror pipeline for the per-layer ones. See
// README.md for what each workload and metric is for.
//
//	go -C bench run .                                  # all four workloads, five runs each, → out/result.json
//	go -C bench run . -workload read_hot -seed 7 -seconds 10 -trace 0
//	go -C bench run . -compare before.json after.json
//
// With -workload it runs that one workload once and prints, as the last
// line of standard output, one JSON object with the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

const (
	// runSeconds is BENCHMARK.json's run_seconds: the window the sample
	// floors below are set for.
	runSeconds = 10
	// Percentiles are reported only over samples this large.
	minReads  = 200
	minWrites = 20
	// measuredSetups is how many times a -trace 0 run plays set-up;
	// setup_s is their median.
	measuredSetups = 3
	// fullRuns is how many untraced runs of each workload a full run makes,
	// for the spread -compare judges by; one traced run follows them.
	fullRuns = 5
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload once and end with a JSON result line (default: all four, five runs each and a traced one)")
		seed     = flag.Int64("seed", 1, "seed of the generated program and op streams")
		seconds  = flag.Int("seconds", runSeconds, "length of the measured window")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 adds the traced run and reports the per-layer metrics")
		out      = flag.String("out", filepath.Join("out", "result.json"), "without -workload: where the result file goes")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments and exit non-zero if the second is worse")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare wants two result files, got %d arguments", flag.NArg())
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *workload != "":
		w := workloadByName(*workload)
		if w == nil {
			err = fmt.Errorf("unknown workload %q", *workload)
			break
		}
		err = contractRun(ctx, w, *seed, *seconds, *trace == 1)
	default:
		err = fullRun(ctx, *seed, *seconds, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// built is what every run of one process shares.
type built struct {
	bin        string // the multilogd binary
	refBin     string // the reference server's
	daemonCPUs cpuSet // the CPUs the daemon and the reference server are confined to; none if zero
}

// prepare builds the daemon from the checkout and then splits the CPUs:
// the build may use all of them. Once per process.
func prepare(ctx context.Context) (built, error) {
	bin, err := filepath.Abs(filepath.Join("out", "bin", "multilogd"))
	if err != nil {
		return built{}, err
	}
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return built{}, err
	}
	if err := buildDaemon(ctx, "..", bin); err != nil {
		return built{}, err
	}
	refBin := filepath.Join(filepath.Dir(bin), "refserver")
	if err := goBuild(ctx, ".", refBin, "./refserver"); err != nil {
		return built{}, err
	}
	daemonCPUs, err := placeCPUs()
	return built{bin, refBin, daemonCPUs}, err
}

// oneRun plays the untraced run and, if asked, the traced run, in a
// scratch directory under out/ that is gone afterwards.
func oneRun(ctx context.Context, b built, w *workloadDef, seed int64, seconds float64, setups, tracedOps int) (*untraced, *traced, error) {
	dir, err := os.MkdirTemp("out", "run-"+w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, nil, err
	}
	cfg := runConfig{built: b, w: w, seed: seed, seconds: seconds, setups: setups, dir: dir}
	u, err := runUntraced(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	var t *traced
	if tracedOps > 0 {
		if t, err = runTraced(ctx, cfg, tracedOps, filepath.Join("out", "trace-"+w.name+".json")); err != nil {
			return nil, nil, err
		}
	}
	return u, t, nil
}

// valid rejects a run that did not measure what its workload is for.
func valid(w *workloadDef, seconds int, u *untraced) error {
	switch {
	case w.name == "read_hot" && u.hitRatio < 0.99:
		return fmt.Errorf("read_hot: hit ratio %.3f, the workload needs >= 0.99", u.hitRatio)
	case w.name == "read_miss" && u.hitRatio > 0.10:
		return fmt.Errorf("read_miss: hit ratio %.3f, the workload needs <= 0.10", u.hitRatio)
	case seconds >= runSeconds && u.nRead < minReads:
		return fmt.Errorf("%s: %d reads in the window, percentiles need %d", w.name, u.nRead, minReads)
	case seconds >= runSeconds && u.nWrite > 0 && u.nWrite < minWrites:
		return fmt.Errorf("%s: %d writes in the window, percentiles need %d", w.name, u.nWrite, minWrites)
	}
	return nil
}

func report(w *workloadDef, u *untraced, t *traced) (attempted, failed int) {
	attempted, failed = u.attempted, u.failed
	failures := u.firstFailures
	fmt.Printf("%s — %s\n", w.name, w.why)
	printMetrics(endToEnd, endToEndValues(u))
	fmt.Printf("  as the clocks read: setup_s %.4f, ops_per_s %.4f, read_p50_ms %.4f, read_p95_ms %.4f; the reference request took %.4f ms (%.1f us in its handler), n=%d\n",
		u.clock.setupS, u.clock.opsPerS, u.clock.readP50, u.clock.readP95, u.refRoundtripP50MS, u.refServiceP50US, u.refSamples)
	fmt.Printf("  %-40s %14.4f %-5s  (oracle checked %d of %d sampled reads)\n", "fail_ratio",
		float64(u.failed)/float64(u.attempted), "ratio", u.oracleChecked, u.oracleSampled)
	if t != nil {
		attempted, failed = attempted+t.attempted, failed+t.failed
		failures = append(failures, t.firstFailures...)
		printMetrics(perLayer, perLayerValues(u, t))
	}
	for _, f := range failures {
		fmt.Println("  FAILED:", f)
	}
	return attempted, failed
}

// contractRun is one run of one workload, ending in the result line.
func contractRun(ctx context.Context, w *workloadDef, seed int64, seconds int, trace bool) error {
	setups, tracedOps := measuredSetups, 0
	if trace {
		setups, tracedOps = 1, w.tracedOps
	}
	b, err := prepare(ctx)
	if err != nil {
		return err
	}
	u, t, err := oneRun(ctx, b, w, seed, float64(seconds), setups, tracedOps)
	if err != nil {
		return err
	}
	if err := valid(w, seconds, u); err != nil {
		return err
	}
	attempted, failed := report(w, u, t)
	defs, vals := endToEnd, endToEndValues(u)
	if trace {
		defs, vals = perLayer, perLayerValues(u, t)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		v := vals[d.name].v
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = metric{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, failed, attempted)
	}
	return nil
}

// resultFile is what a full run writes and -compare reads: for each
// workload, every run's end-to-end values and one traced run's layers.
type resultFile struct {
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Claim     *string                    `json:"claim"` // this benchmark claims no gain
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
}

// fullRun plays every workload fullRuns times untraced and once traced,
// prints every metric, and writes the result file.
func fullRun(ctx context.Context, seed int64, seconds int, out string) error {
	b, err := prepare(ctx)
	if err != nil {
		return err
	}
	res := resultFile{Seed: seed, Seconds: seconds, Workloads: map[string]*workloadResult{}}
	failedTotal := 0
	for i := range workloads {
		w := &workloads[i]
		wr := &workloadResult{EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
		res.Workloads[w.name] = wr
		for r := 0; r <= fullRuns; r++ {
			// The last run is the traced one; its window also feeds the
			// per-layer metrics that come from the child.
			setups, tracedOps := measuredSetups, 0
			if r == fullRuns {
				setups, tracedOps = 1, w.tracedOps
			}
			u, t, err := oneRun(ctx, b, w, seed, float64(seconds), setups, tracedOps)
			if err != nil {
				return err
			}
			if err := valid(w, seconds, u); err != nil {
				return err
			}
			attempted, failed := report(w, u, t)
			wr.Attempted, wr.Failed = wr.Attempted+attempted, wr.Failed+failed
			if t == nil {
				for name, v := range endToEndValues(u) {
					wr.EndToEnd[name] = append(wr.EndToEnd[name], v.v)
				}
				continue
			}
			for name, v := range perLayerValues(u, t) {
				wr.PerLayer[name] = v.v
			}
		}
		failedTotal += wr.Failed
	}
	js, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(js, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	if failedTotal > 0 {
		return fmt.Errorf("%d operations failed", failedTotal)
	}
	return nil
}
