package differential

import "testing"

// TestSharedCampaign is the smoke run of the shared-serving oracle (make
// campaign runs it in full through difffuzz -mode shared): on every monotone
// generated program, every clearance's view of a maximal level's reduction
// answers as its own reduction does; MonotoneClause classifies every
// generated rule as its shape says; every shape, monotone or not, is
// generated; and some non-monotone program diverges when served shared, so
// the check is what keeps the server exact.
func TestSharedCampaign(t *testing.T) {
	n := 80
	if testing.Short() {
		n = 24
	}
	res := RunSharedCampaign(7100, n)
	names := make([]string, 0, len(sharedShapes)+2)
	for _, sh := range sharedShapes {
		names = append(names, sh.name)
	}
	names = append(names, "pi", "fact")
	for _, name := range names {
		t.Logf("shape %-16s %d clauses", name, res.Shapes[name])
		if res.Shapes[name] == 0 {
			t.Errorf("shape %s was never generated", name)
		}
	}
	t.Logf("%d programs, %d monotone, %d probes compared; %d of %d non-monotone programs diverge when served shared",
		res.Programs, res.Monotone, res.Probes, res.Diverged, res.Programs-res.Monotone)
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
