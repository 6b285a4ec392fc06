package differential

import (
	"testing"
	"time"

	"repro/internal/workload"
)

// TestFlowCampaign is the standing gate for the information-flow analysis:
// on generated databases, every predicate the analysis claims
// clearance-independent must answer fixed-bottom-level probes byte-equally
// across all clearances and belief modes through the Figure 12 reduction,
// and every predicate whose answers demonstrably vary must not carry the
// claim. Sharded into parallel subtests so the race-enabled CI tier
// exercises concurrent reductions and analyses.
func TestFlowCampaign(t *testing.T) {
	programs, shards := 52, 4
	if testing.Short() {
		programs, shards = 8, 2
	}
	start := time.Now()
	results := make([]FlowCampaignResult, shards)
	t.Run("shards", func(t *testing.T) {
		for s := 0; s < shards; s++ {
			s := s
			t.Run("", func(t *testing.T) {
				t.Parallel()
				results[s] = RunFlowCampaign(int64(9000+s*programs), programs)
			})
		}
	})
	total, shapes := FlowCampaignResult{}, map[workload.ClauseShape]int{}
	for _, res := range results {
		total.Programs += res.Programs
		total.Preds += res.Preds
		total.Independent += res.Independent
		total.Dependent += res.Dependent
		total.Varied += res.Varied
		total.Probes += res.Probes
		total.Violations = append(total.Violations, res.Violations...)
		for sh, k := range res.Shapes {
			shapes[sh] += k
		}
	}
	checkShapes(t, workload.Mix{workload.ConstantLevel: 1, workload.WriteDown: 1}, shapes)
	for _, v := range total.Violations {
		t.Errorf("clearance-independence claim falsified:\n%s", v.Report())
	}
	t.Logf("flow campaign: %d programs, %d preds (%d independent, %d dependent, %d varied), %d probes in %v",
		total.Programs, total.Preds, total.Independent, total.Dependent,
		total.Varied, total.Probes, time.Since(start))
	if total.Independent == 0 {
		t.Error("campaign never exercised a claimed-independent predicate; the check is vacuous")
	}
	if total.Dependent == 0 {
		t.Error("campaign never exercised a clearance-dependent predicate")
	}
	if total.Varied == 0 {
		t.Error("no predicate's answers varied across clearances; the equality check proves nothing")
	}
	if !testing.Short() && total.Programs < 200 {
		t.Errorf("campaign covered %d programs, want ≥ 200", total.Programs)
	}
}

// The flow-case generator is seeded: identical seeds must produce identical
// programs so a violation's seed reproduces it.
func TestFlowCasesDeterministic(t *testing.T) {
	a, b := flowCases(7, 12), flowCases(7, 12)
	if len(a) != len(b) {
		t.Fatalf("case counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Source != b[i].Source {
			t.Fatalf("case %d differs between identically-seeded runs", i)
		}
	}
}
