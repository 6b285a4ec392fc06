package differential

import (
	"testing"

	"repro/internal/workload"
)

// TestSharedCampaign is the smoke run of the shared-serving oracle (make
// campaign runs it in full through difffuzz -mode shared): on every monotone
// generated program, every clearance's view of a maximal level's reduction
// answers as its own reduction does; MonotoneClause classifies every
// generated rule as its shape says; every shape of its mix, monotone or not,
// is drawn; and some non-monotone program diverges when served shared, so
// the check is what keeps the server exact.
func TestSharedCampaign(t *testing.T) {
	n := 80
	if testing.Short() {
		n = 24
	}
	res := RunSharedCampaign(7100, n)
	checkShapes(t, workload.MonotoneMix.With(workload.NonMonotoneMix), res.Shapes)
	t.Logf("%d programs, %d monotone, %d probes compared; %d of %d non-monotone programs diverge when served shared",
		res.Programs, res.Monotone, res.Probes, res.Diverged, res.Programs-res.Monotone)
	res.ReportDeclines(t.Logf)
	for _, m := range res.Misclassified {
		t.Error(m)
	}
	for _, d := range res.Divergences[:min(len(res.Divergences), 3)] {
		t.Error(d)
	}
	if res.Monotone == 0 || res.Monotone == res.Programs || res.Diverged == 0 {
		t.Error("the campaign saw too little")
	}
}

// checkShapes logs how many clauses a campaign drew of each shape its test
// declares, and fails on a shape it never drew: that shape went unchecked.
// The test declares the shapes apart from the mix the campaign draws from,
// so a shape dropped from the mix fails here.
func checkShapes(t *testing.T, want workload.Mix, counts map[workload.ClauseShape]int) {
	t.Helper()
	for _, s := range want.Report(t.Logf, counts) {
		t.Errorf("shape %s was never drawn: the campaign does not check it", s)
	}
}
