package differential

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/datalog"
	"repro/internal/resource"
)

// TestSLDOracleWorkPinned holds the SLD oracle's answers and resolution
// steps, as the campaign configures it, on the first 25 programs of the
// standing Datalog campaign (every family 5 times) to values recorded with
// a prover that renamed every clause of the goal's predicate: skipping the
// clauses whose head constants clash with the goal saves renaming alone, and
// must not change what the proof search finds or how many steps it counts.
func TestSLDOracleWorkPinned(t *testing.T) {
	h := sha256.New()
	cases, answers, steps, limited := 0, 0, int64(0), 0
	for _, c := range DatalogPrograms(1, 25) {
		s := datalog.NewSLD(c.Program)
		s.MaxDepth, s.MaxSteps = 64, 5_000
		s.Limits = resource.Limits{MaxSteps: 1 << 40} // counts steps, never stops
		got, err := s.Prove(c.Goal, 0)
		cases++
		answers += len(got)
		steps += s.LastStats.Steps
		if err != nil {
			limited++
		}
		fmt.Fprintf(h, "%s|%s|%d|%v\n", c.Program, c.Goal, s.LastStats.Steps, err != nil)
		for _, a := range got {
			fmt.Fprintln(h, a.Bindings)
		}
	}
	sum := fmt.Sprintf("%x", h.Sum(nil))[:16]
	t.Logf("%d cases, %d answers, %d steps, %d stopped by a bound; digest %s", cases, answers, steps, limited, sum)
	if cases != 65 || answers != 248 || steps != 27261 || limited != 15 || sum != "b608f58f7b8507af" {
		t.Errorf("want 65 cases, 248 answers, 27261 steps, 15 stopped by a bound, digest b608f58f7b8507af")
	}
}
