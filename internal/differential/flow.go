package differential

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/multilog"
	"repro/internal/workload"
)

// This file cross-validates the MLS information-flow analysis the same way
// deadrules_test.go validates DL007: an analysis claim is only as good as a
// differential harness that tries to falsify it on generated programs. The
// claim under test is the contract behind FlowInfo.ClearanceIndependent
// (internal/analysis/flow.go): if every flow source of a predicate is
// universally dominated, then a fixed-level probe at a universally dominated
// level returns byte-identical answers no matter which clearance runs the
// reduction. The falsifiable converse is checked for every predicate,
// claimed or not: if observed answers *vary* across clearances, the analysis
// must not have claimed independence.

// FlowViolation is one falsified independence claim: a predicate the
// analysis called clearance-independent whose probe answers differed
// between two users.
type FlowViolation struct {
	Seed    int64
	Source  string
	Pred    string
	Probe   string
	Results map[string]string // user level -> rendered result
}

// Report renders the violation for test failure output.
func (v *FlowViolation) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flow independence violated: pred %s, probe %s (seed %d)\n", v.Pred, v.Probe, v.Seed)
	users := make([]string, 0, len(v.Results))
	for u := range v.Results {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		fmt.Fprintf(&b, "  as %s: %s\n", u, v.Results[u])
	}
	b.WriteString("program:\n")
	for _, line := range strings.Split(strings.TrimSpace(v.Source), "\n") {
		b.WriteString("  " + line + "\n")
	}
	return b.String()
}

// FlowCampaignResult summarizes a flow-validation campaign. Independent and
// Dependent count predicate claims; Varied counts predicates whose probe
// answers actually differed across clearances — it must be positive for the
// campaign to mean anything (otherwise equality holds vacuously).
type FlowCampaignResult struct {
	Programs    int
	Preds       int
	Independent int
	Dependent   int
	Varied      int
	Probes      int
	Violations  []*FlowViolation
	// Shapes counts the clauses the campaign drew of each shape.
	Shapes map[workload.ClauseShape]int
}

// flowCases generates n seeded databases: the cross-engine campaign's
// (multilogPrograms), a clearance-independent island (an l0 fact and an
// l0-headed rule over it) so that the campaign always exercises the
// claimed-independent class, and, in every third, a write-down rule drawn
// against it; each probed at the bottom level.
func flowCases(seed int64, n int) []multilogProgram {
	out := multilogPrograms(seed, n)
	for i := range out {
		c, l0 := &out[i], workload.Level(0)
		prog := *c.Program
		prog.Source += fmt.Sprintf("%s[p7(k0: a -%s-> base)].\n%s[q7(K: d -%s-> echoed)] :- %s[p7(K: a -C-> V)] << fir.\n", l0, l0, l0, l0, l0)
		c.Program, c.db = &prog, mustParse(prog.Source)
		if i%3 == 0 {
			w := workload.DrawWrite(rand.New(rand.NewSource(c.seed)), c.db, c.Poset, workload.Mix{workload.WriteDown: 1}, 8)
			prog.Source, prog.Clauses = prog.Source+w.Src+"\n", append(prog.Clauses, w.Clause)
			c.db = mustParse(prog.Source)
		}
		c.probes = slices.DeleteFunc(workload.Probes(c.db, c.Poset, l0), func(p workload.Probe) bool { return p.Level != l0 })
	}
	return out
}

// mustParse parses a generated program.
func mustParse(src string) *multilog.Database {
	db, err := multilog.Parse(src)
	if err != nil {
		//vet:allow nopanic -- a generator bug must abort the campaign loudly
		panic(fmt.Sprintf("differential: generator emitted unparsable program:\n%s\n%v", src, err))
	}
	return db
}

// RunFlowCampaign generates n seeded databases, runs the information-flow
// analysis on each, and probes every analyzed m-predicate at the chain's
// bottom level (the one level every user dominates) under all four belief
// readings, as every user, through the Figure 12 reduction. A predicate the
// analysis claims clearance-independent must answer byte-identically for
// every user; a predicate whose answers vary must not carry the claim. A
// reduceOracle keeping its reductions reduces each case once per user.
func RunFlowCampaign(seed int64, n int) FlowCampaignResult {
	res := FlowCampaignResult{Programs: n, Shapes: map[workload.ClauseShape]int{}}
	for _, c := range flowCases(seed, n) {
		for _, cl := range c.Clauses {
			res.Shapes[cl.Shape]++
		}
		flow, err := analysis.AnalyzeFlow(c.db)
		if err != nil {
			//vet:allow nopanic -- generated lattices are valid chains by construction
			panic(fmt.Sprintf("differential: flow analysis rejected generated program: %v", err))
		}
		oracle := MultiLogOracles()[0]
		varied := map[string]bool{}
		for _, pred := range flow.PredNames() {
			if flow.Preds[pred].ClearanceIndependent {
				res.Independent++
			} else {
				res.Dependent++
			}
		}
		res.Preds += len(flow.PredNames())
		for _, probe := range c.probes {
			info := flow.Preds[probe.Pred]
			if info == nil {
				continue
			}
			res.Probes++
			results := map[string]string{}
			first, same := "", true
			for ui, user := range c.Poset.Labels() {
				rendered := ""
				if r, err := oracle.Answer(c.db, user, probe.Query); err != nil {
					rendered = "error: " + err.Error()
				} else {
					rendered = r.String()
				}
				results[string(user)] = rendered
				if ui == 0 {
					first = rendered
				} else if rendered != first {
					same = false
				}
			}
			if same {
				continue
			}
			varied[probe.Pred] = true
			if info.ClearanceIndependent {
				res.Violations = append(res.Violations, &FlowViolation{
					Seed: c.seed, Source: c.Source, Pred: probe.Pred, Probe: probe.Src, Results: results,
				})
			}
		}
		res.Varied += len(varied)
	}
	return res
}
