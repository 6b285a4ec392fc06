package differential

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/multilog"
	"repro/internal/workload"
)

// campaignSizes returns the campaign scale: the full ≥200-program campaign
// by default, a reduced one under -short (the race-enabled CI tier runs
// -short so the ~10x race overhead stays inside the time budget).
func campaignSizes() (datalogN, multilogN int) {
	if testing.Short() {
		return 50, 20
	}
	return 140, 60
}

// One set of oracles asked of two databases answers each from its own
// reductions: a reduction a campaign keeps never serves another program.
func TestKeptReductionsServeOnlyTheirDatabase(t *testing.T) {
	q, err := multilog.ParseGoals("l0[p(K: a -C-> V)]")
	if err != nil {
		t.Fatal(err)
	}
	oracles := MultiLogOracles()
	for _, v := range []string{"v1", "v2", "v1"} {
		db := mustParse(fmt.Sprintf("level(l0).\nl0[p(k: a -l0-> %s)].\n", v))
		names, outs := runMultiLogOracles(oracles, db, "l0", q)
		for i, o := range outs {
			if o.err != nil || !strings.Contains(o.result.String(), v) {
				t.Errorf("%s answers %s on the database holding %s", names[i], o, v)
			}
		}
	}
}

// TestCrossEngineCampaign is the standing correctness gate: a seeded,
// deterministic campaign of ≥200 generated programs (under -short: 70)
// cross-checked over all six Datalog strategies and both MultiLog
// semantics. Any disagreement arrives already shrunk to a minimal
// counterexample with a ready-to-paste regression test.
func TestCrossEngineCampaign(t *testing.T) {
	dn, mn := campaignSizes()
	start := time.Now()

	dres := RunDatalogCampaign(1, dn)
	for _, d := range dres.Disagreements {
		t.Errorf("datalog cross-check failed:\n%s\npromote with:\n%s",
			d.Report(), d.RegressionTest("Campaign"))
	}
	mres := RunMultiLogCampaign(1, mn)
	for _, d := range mres.Disagreements {
		t.Errorf("multilog cross-check failed (Theorem 6.1 violated):\n%s\npromote with:\n%s",
			d.Report(), d.RegressionTest("Campaign"))
	}

	checkShapes(t, workload.Mix{workload.ConstantLevel: 1}, mres.Shapes)
	elapsed := time.Since(start)
	t.Logf("campaign: %d programs, %d cases in %v",
		dres.Programs+mres.Programs, dres.Cases+mres.Cases, elapsed)
	if got := dres.Programs + mres.Programs; !testing.Short() && got < 200 {
		t.Errorf("campaign covered %d programs, want ≥ 200", got)
	}
	if !testing.Short() && elapsed > 60*time.Second {
		t.Errorf("campaign took %v, budget is 60s", elapsed)
	}
}

// The generators are seeded: the same seed must yield byte-identical cases,
// so a counterexample's seed is enough to reproduce it — the Datalog and
// MultiLog campaign cases, and the workload generator's
// programs, writes and probes for every mix a campaign declares.
func TestGeneratorsDeterministic(t *testing.T) {
	a := DatalogPrograms(7, 10)
	b := DatalogPrograms(7, 10)
	if len(a) != len(b) {
		t.Fatalf("case counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Program.String() != b[i].Program.String() || a[i].Goal.String() != b[i].Goal.String() {
			t.Fatalf("case %d differs between identically-seeded runs", i)
		}
	}
	ma := MultiLogPrograms(7, 5)
	mb := MultiLogPrograms(7, 5)
	if len(ma) != len(mb) {
		t.Fatalf("multilog case counts differ: %d vs %d", len(ma), len(mb))
	}
	for i := range ma {
		if ma[i].Source != mb[i].Source || ma[i].QuerySrc != mb[i].QuerySrc || ma[i].User != mb[i].User {
			t.Fatalf("multilog case %d differs between identically-seeded runs", i)
		}
	}
	draw := func(mix workload.Mix, seed int64) string {
		var out strings.Builder
		prog := workload.Generate(workload.ProgramConfig{Lattice: workload.LatticeShape(seed % 4), Levels: 5, Facts: 20, Preds: 3,
			Rules: 6, Poly: 0.3, ClassBelow: true, Mix: mix, Seed: seed})
		out.WriteString(prog.Source)
		db := mustParse(prog.Source)
		r := rand.New(rand.NewSource(seed))
		for n := 0; n < 10; n++ {
			fmt.Fprintln(&out, workload.DrawWrite(r, db, prog.Poset, mix.With(workload.Mix{workload.Retract: 1, workload.Fact: 1}), n))
		}
		fmt.Fprintln(&out, workload.Probes(db, prog.Poset, prog.Poset.Labels()...))
		return out.String()
	}
	for _, mix := range []workload.Mix{crossEngineMix, crossEngineMix.With(workload.Mix{workload.WriteDown: 1}), sharedMix, sharedMix.With(workload.HostileMix)} {
		for seed := int64(0); seed < 8; seed++ {
			if draw(mix, seed) != draw(mix, seed) {
				t.Fatalf("mix %v, seed %d: the generator drew two programs, write sequences or probe sets", mix, seed)
			}
		}
	}
}

func TestResultCanonicalization(t *testing.T) {
	r := NewResult([]string{"{X/b}", "{X/a}", "{X/b}"})
	if r.Len() != 2 || r.Tuples[0] != "{X/a}" {
		t.Fatalf("NewResult did not sort+dedup: %v", r.Tuples)
	}
	if !r.Equal(NewResult([]string{"{X/a}", "{X/b}"})) {
		t.Error("equal canonical sets reported unequal")
	}
	if r.Equal(NewResult([]string{"{X/a}"})) {
		t.Error("different sets reported equal")
	}
	if !NewResult([]string{"{X/a}"}).Subset(r) {
		t.Error("subset not detected")
	}
	if r.Subset(NewResult([]string{"{X/a}"})) {
		t.Error("superset claimed to be subset")
	}
	if NewResult(nil).String() != "∅" {
		t.Error("empty result should render as ∅")
	}
}

// compareOutcomes policy: unsupported oracles are skipped, consistent
// rejection is agreement, hard errors and differing answers are not.
func TestCompareOutcomesPolicy(t *testing.T) {
	names := []string{"a", "b", "c"}
	ok := Result{Tuples: []string{"{X/1}"}}
	other := Result{Tuples: []string{"{X/2}"}}
	if bad := compareOutcomes(names, []outcome{{result: ok}, {result: ok}, {result: ok}}); len(bad) != 0 {
		t.Errorf("agreement misreported: %v", bad)
	}
	if bad := compareOutcomes(names, []outcome{{result: ok}, {result: other}, {result: ok}}); len(bad) != 1 || bad[0] != "b" {
		t.Errorf("want [b], got %v", bad)
	}
	if bad := compareOutcomes(names, []outcome{{result: ok}, {err: ErrUnsupported}, {result: ok}}); len(bad) != 0 {
		t.Errorf("unsupported oracle should be skipped: %v", bad)
	}
	hard := []outcome{{result: ok}, {err: errHard}, {result: ok}}
	if bad := compareOutcomes(names, hard); len(bad) != 1 || bad[0] != "b" {
		t.Errorf("hard error should disagree: %v", bad)
	}
	rejected := []outcome{{err: errHard}, {err: errHard}, {err: errHard}}
	if bad := compareOutcomes(names, rejected); len(bad) != 0 {
		t.Errorf("consistent rejection should agree: %v", bad)
	}
}

var errHard = &hardErr{}

type hardErr struct{}

func (*hardErr) Error() string { return "boom" }
