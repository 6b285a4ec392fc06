package compile

import (
	"context"
	"testing"

	"repro/internal/workload"
)

// TestParallelSharedPlan exercises one immutable plan serving concurrent
// Run calls (the server pattern: one cached plan, many clearances).
func TestParallelSharedPlan(t *testing.T) {
	p, _ := workload.DatalogProgram(workload.DatalogConfig{Family: workload.FamGraphTC, Size: 10, Seed: 3})
	plan, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := plan.Run(context.Background(), p, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := dump(seq)
	done := make(chan []string, 6)
	for i := 0; i < 6; i++ {
		go func() {
			model, _, err := plan.Run(context.Background(), p, nil, Options{})
			if err != nil {
				done <- nil
				return
			}
			done <- dump(model)
		}()
	}
	for i := 0; i < 6; i++ {
		got := <-done
		if got == nil {
			t.Fatal("concurrent Run failed")
		}
		equalDump(t, want, got)
	}
}
