package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark command, so the
// interrupt test can signal a real process without building a second one.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_AS_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func sha(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// firstOps renders set-up and the first n ops of a workload, the two
// client streams alternating as the traced run plays them.
func firstOps(w *workloadDef, seed int64, n int) string {
	var b strings.Builder
	for _, o := range setupOps(w, seed) {
		fmt.Fprintln(&b, "setup", o)
	}
	streams := [nClients]*stream{newStream(w, seed, 0), newStream(w, seed, 1)}
	for i := 0; i < n; i++ {
		fmt.Fprintln(&b, i%nClients, streams[i%nClients].next())
	}
	return b.String()
}

// TestFrozenInputs pins the load. A later change cannot alter what the
// benchmark asks of the daemon without editing these digests, which makes
// it a change of the benchmark and not of the system under test.
func TestFrozenInputs(t *testing.T) {
	got := map[string]string{
		"program large": sha(programSource(shapeLarge, 1)),
		"program small": sha(programSource(shapeSmall, 1)),
	}
	for i := range workloads {
		got["ops "+workloads[i].name] = sha(firstOps(&workloads[i], 1, 1000))
	}
	want := map[string]string{
		"program large":  "f632bafd37b283e2dd43767bdf2c20e6d7e0181a353e9dd468b00db2e8382946",
		"program small":  "2835ebd62d131bbff27f08bdf0919b89c6ec9f1c6adb4e27cf6a57e3d740e1ed",
		"ops read_hot":   "9d6a1c1601e65400819d0b30bb224f8c73cc4bafe41bc9eace75af24777756e8",
		"ops read_miss":  "ac5e187905605235d400f7b9eca02d19b9dfb404b3f4969f107401e3b5d6462a",
		"ops write_mix":  "0a2c6a051932cf863e4f7c05b3fdece6f9a15f29399d81ee9d5c5de60f1a3a5a",
		"ops rule_churn": "1418ead996b94c6c7cb3f12acb3d3659ff09f0355c25392899902147426c517a",
	}
	for k, v := range got {
		if v != want[k] {
			t.Errorf("%s: sha256 %s, pinned %s", k, v, want[k])
		}
	}
	if a, b := sha(programSource(shapeLarge, 2)), got["program large"]; a == b {
		t.Error("the program does not depend on the seed")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNoDrift holds BENCHMARK.json and the tables in metrics.go and gen.go
// together, name for name.
func TestNoDrift(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the sample floors are set for %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), gen.go has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if !nameRE.MatchString(g.Name) {
				t.Errorf("%s: name %q is not made of letters, digits, _ . -", kind, g.Name)
			}
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: %s [%s, %s], metrics.go has %s [%s, %s]", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.bound) {
				t.Errorf("%s %s: bound %v, metrics.go has %v", kind, g.Name, g.Bound, w.bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

// TestPlaceCPUsOnce guards the split against being made twice: a second
// split would start from the mask the first one narrowed.
func TestPlaceCPUsOnce(t *testing.T) {
	daemon, err := placeCPUs()
	if err != nil {
		t.Fatal(err)
	}
	mine, err := getAffinity(0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := placeCPUs()
	if err != nil {
		t.Fatal(err)
	}
	after, err := getAffinity(0)
	if err != nil {
		t.Fatal(err)
	}
	if again != daemon || after != mine {
		t.Errorf("a second placeCPUs moved the masks: daemon %v then %v, this process %v then %v",
			daemon[0], again[0], mine[0], after[0])
	}
	for cpu := 0; cpu < len(mine)*64; cpu++ {
		if daemon.has(cpu) && mine.has(cpu) {
			t.Errorf("CPU %d is the daemon's and the load generator's", cpu)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3.0, 1.0, 2.0], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles %v, %v; Python gives 1, 3", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m} }
	file := func(ops, p50 []float64, failed int) string {
		r := resultFile{Seed: 1, Seconds: 10, Workloads: map[string]*workloadResult{}}
		for i := range workloads {
			r.Workloads[workloads[i].name] = &workloadResult{Attempted: 1000, Failed: failed, EndToEnd: map[string][]float64{
				"setup_s": steady(2), "ops_per_s": ops, "read_p50_ms": p50, "read_p95_ms": steady(3)}}
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file(steady(1000), steady(1), 0)
	for _, tc := range []struct {
		name         string
		other        string
		wantErr      bool
		wantVerdicts []string
	}{
		{"itself", base, false, []string{"same"}},
		{"half the throughput", file(steady(500), steady(1), 0), true, []string{"worse"}},
		{"twice the throughput", file(steady(2000), steady(1), 0), false, []string{"better"}},
		{"a latency too noisy to call", file(steady(1000), []float64{0.5, 1, 1.5, 2, 1}, 0), false, []string{"unresolved"}},
		{"twice the throughput with wrong answers", file(steady(2000), steady(1), 2), true, []string{"better", "worse"}},
		{"one failure in a thousand", file(steady(1000), steady(1), 1), false, []string{"same"}},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, base, tc.other)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: error %v, want error %v", tc.name, err, tc.wantErr)
		}
		for _, v := range tc.wantVerdicts {
			if !strings.Contains(out.String(), v) {
				t.Errorf("%s: no %q verdict in\n%s", tc.name, v, out.String())
			}
		}
	}
}

// daemonsRunning counts live processes whose executable is one of the
// benchmark's children: multilogd or the reference server.
func daemonsRunning(t *testing.T) int {
	bins, err := filepath.Abs(filepath.Join("out", "bin"))
	if err != nil {
		t.Fatal(err)
	}
	procs, err := filepath.Glob("/proc/[0-9]*/exe")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, p := range procs {
		if exe, err := os.Readlink(p); err == nil && filepath.Dir(strings.TrimSuffix(exe, " (deleted)")) == bins {
			n++
		}
	}
	return n
}

func scratchDirs(t *testing.T) []string {
	dirs, err := filepath.Glob(filepath.Join("out", "run-*"))
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// TestSmoke runs every workload with a one-second window and a 100-op
// traced run, and checks what a full run relies on. It checks the plumbing,
// not the numbers, so it runs on a program of 60 facts and 6 rules with a
// short warm-up: at the real sizes set-up alone, played three times per
// workload (daemon, traced server, plain server), takes longer than a
// tier-1 test may. The hit-ratio floors of valid are for the real sizes
// and are checked by every real run.
func TestSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain to build cmd/multilogd with")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	b, err := prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := new(workloadDef)
		*w = workloads[i]
		w.shape.facts, w.shape.rules, w.warmup = 60, 6, min(w.warmup, 600)
		u, tr, err := oneRun(ctx, b, w, 1, 1, 1, 100)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if u.failed+tr.failed > 0 {
			t.Errorf("%s: %d + %d operations failed: %v %v", w.name, u.failed, tr.failed, u.firstFailures, tr.firstFailures)
		}
		if u.oracleChecked == 0 {
			t.Errorf("%s: the oracle checked no read", w.name)
		}
		for _, table := range []struct {
			defs []metricDef
			vals map[string]value
		}{{endToEnd, endToEndValues(u)}, {perLayer, perLayerValues(u, tr)}} {
			if len(table.vals) != len(table.defs) {
				t.Errorf("%s: %d values for %d metrics", w.name, len(table.vals), len(table.defs))
			}
			for _, d := range table.defs {
				v, ok := table.vals[d.name]
				if !ok || math.IsNaN(v.v) || math.IsInf(v.v, 0) {
					t.Errorf("%s: metric %s is missing or not finite (%v)", w.name, d.name, v.v)
				}
			}
		}
		for _, d := range endToEnd {
			if endToEndValues(u)[d.name].v <= 0 {
				t.Errorf("%s: end-to-end metric %s is not positive", w.name, d.name)
			}
		}
		checkTrace(t, filepath.Join("out", "trace-"+w.name+".json"), tr.attempted)
	}
	if n := daemonsRunning(t); n != 0 {
		t.Errorf("%d children still running", n)
	}
	if dirs := scratchDirs(t); len(dirs) != 0 {
		t.Errorf("scratch directories left behind: %v", dirs)
	}
}

// checkTrace reads a trace file back: every child lies inside its parent's
// interval, siblings do not overlap (so every self time is >= 0), and every
// steady op has its round trip, its handler span and its replay.
func checkTrace(t *testing.T, path string, attempted int) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct{ Spans []span }
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	childNS := map[int]int64{}
	lastEnd := map[int]int64{}
	perOp := map[int]map[string]int{}
	for _, s := range tf.Spans {
		if s.End < s.Start {
			t.Fatalf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
		if perOp[s.Op] == nil {
			perOp[s.Op] = map[string]int{}
		}
		perOp[s.Op][s.Name]++
		if s.Parent == 0 {
			continue
		}
		p := tf.Spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End || s.Op != p.Op {
			t.Fatalf("%s: span %d (%s) is outside its parent %d (%s)", path, s.ID, s.Name, p.ID, p.Name)
		}
		if s.Start < lastEnd[s.Parent] {
			t.Fatalf("%s: span %d (%s) overlaps a sibling", path, s.ID, s.Name)
		}
		lastEnd[s.Parent] = s.End
		childNS[s.Parent] += s.End - s.Start
	}
	for id, ns := range childNS {
		if p := tf.Spans[id-1]; ns > p.End-p.Start {
			t.Fatalf("%s: span %d (%s) has negative self time", path, p.ID, p.Name)
		}
	}
	ops := 0
	for op, names := range perOp {
		if names["server.client_roundtrip"] == 0 {
			continue // a session open
		}
		ops++
		if names["server.client_roundtrip"] != 1 || names["server.handler"] != 1 || names["mirror.replay"] != 1 {
			t.Errorf("%s: op %d has spans %v", path, op, names)
		}
	}
	// 4 traced set-up queries, then the steady ops; warm-up ops are counted
	// as attempted but leave no spans.
	if ops < 5 || ops > attempted {
		t.Errorf("%s: %d traced ops of %d attempted", path, ops, attempted)
	}
}

// TestInterrupt sends SIGINT to a benchmark that has a daemon up and
// checks that daemon, scratch directory and port go with it.
func TestInterrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a second benchmark process")
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, "-workload", "read_hot", "-seconds", "60")
	cmd.Env = append(os.Environ(), "BENCH_AS_MAIN=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	deadline := time.After(2 * time.Minute)
	for daemonsRunning(t) == 0 {
		select {
		case err := <-exited:
			t.Fatalf("the benchmark exited before starting a daemon: %v\n%s", err, out.String())
		case <-deadline:
			cmd.Process.Kill() //nolint:errcheck // failing anyway
			t.Fatalf("no daemon after two minutes\n%s", out.String())
		case <-time.After(20 * time.Millisecond):
		}
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err == nil {
			t.Errorf("an interrupted benchmark exited 0\n%s", out.String())
		}
	case <-time.After(time.Minute):
		cmd.Process.Kill() //nolint:errcheck // failing anyway
		t.Fatalf("the benchmark ignored SIGINT\n%s", out.String())
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Errorf("an interrupted benchmark printed a result line\n%s", out.String())
	}
	if n := daemonsRunning(t); n != 0 {
		t.Errorf("%d children outlived the interrupted benchmark", n)
	}
	if dirs := scratchDirs(t); len(dirs) != 0 {
		t.Errorf("scratch directories left behind: %v", dirs)
	}
}
