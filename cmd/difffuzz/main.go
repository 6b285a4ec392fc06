// Command difffuzz runs cross-engine differential campaigns from the
// command line: seeded batches of generated programs are evaluated by every
// Datalog strategy and both MultiLog semantics, and any disagreement is
// shrunk to a minimal counterexample printed with a ready-to-paste
// regression test.
//
// Usage:
//
//	difffuzz                          # one batch of each kind, seed 1
//	difffuzz -mode datalog -programs 500 -seed 7
//	difffuzz -rounds 0                # loop until interrupted or a bug is found
//	difffuzz -mode shared -programs 400  # shared serving: a view vs each clearance's reduction
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/differential"
)

func main() {
	mode := flag.String("mode", "both", "which engines to cross-check: datalog, multilog, or both; or shared, the view of a maximal level's reduction against each clearance's own")
	programs := flag.Int("programs", 200, "programs per batch per mode")
	seed := flag.Int64("seed", 1, "base seed for the first batch; later batches advance it")
	rounds := flag.Int("rounds", 1, "number of batches to run; 0 means run until a disagreement (or interrupt)")
	verbose := flag.Bool("v", false, "print per-batch statistics")
	flag.Parse()

	switch *mode {
	case "datalog", "multilog", "both":
	case "shared":
		os.Exit(shared(*seed, *programs, *verbose))
	default:
		fmt.Fprintf(os.Stderr, "difffuzz: unknown -mode %q (want datalog, multilog, both or shared)\n", *mode)
		os.Exit(2)
	}

	found := 0
	for round := 0; *rounds == 0 || round < *rounds; round++ {
		batchSeed := *seed + int64(round)*int64(*programs)
		start := time.Now()
		var results []differential.CampaignResult
		if *mode == "datalog" || *mode == "both" {
			results = append(results, differential.RunDatalogCampaign(batchSeed, *programs))
		}
		if *mode == "multilog" || *mode == "both" {
			results = append(results, differential.RunMultiLogCampaign(batchSeed, *programs))
		}
		progs, cases := 0, 0
		for _, r := range results {
			progs += r.Programs
			cases += r.Cases
			for _, d := range r.Disagreements {
				found++
				fmt.Printf("%s\nregression test:\n%s\n", d.Report(), d.RegressionTest(fmt.Sprintf("Difffuzz%d", found)))
			}
		}
		if *verbose || found > 0 {
			fmt.Printf("batch %d: seed %d, %d programs, %d cases, %d disagreements, %v\n",
				round, batchSeed, progs, cases, found, time.Since(start).Round(time.Millisecond))
		}
		if found > 0 {
			os.Exit(1)
		}
	}
	fmt.Printf("difffuzz: all oracles agree (%s mode, %d rounds of %d programs)\n", *mode, *rounds, *programs)
}

// shared runs the shared-serving campaign once and returns the exit code: 1
// on a misclassified clause, a monotone program whose view diverged, or a
// non-monotone program set none of which diverged (a check that guards
// nothing).
func shared(seed int64, programs int, verbose bool) int {
	start := time.Now()
	res := differential.RunSharedCampaign(seed, programs)
	for _, m := range res.Misclassified {
		fmt.Println("misclassified:", m)
	}
	for _, d := range res.Divergences {
		fmt.Println("diverged:", d)
	}
	if verbose {
		fmt.Printf("shared: seed %d, %d programs (%d monotone), %d probes compared, %d of %d non-monotone programs diverge when served shared, shapes %v, %v\n",
			seed, res.Programs, res.Monotone, res.Probes, res.Diverged, res.Programs-res.Monotone, res.Shapes, time.Since(start).Round(time.Millisecond))
	}
	if len(res.Misclassified)+len(res.Divergences) > 0 || res.Diverged == 0 {
		return 1
	}
	fmt.Printf("difffuzz: every view answers as its clearance's reduction (%d programs)\n", programs)
	return 0
}
