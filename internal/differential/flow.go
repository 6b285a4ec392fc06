package differential

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/lattice"
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
}

// flowProbeAttr maps the generator's predicate families to the attribute
// their tuples carry: ProgramSource facts use attribute a, rule heads d.
func flowProbeAttr(pred string) string {
	if strings.HasPrefix(pred, "p") {
		return "a"
	}
	return "d"
}

// flowCase is one generated database plus its chain of user levels.
type flowCase struct {
	seed   int64
	src    string
	db     *multilog.Database
	levels int
}

// flowCases generates n seeded databases. Each program gets a guaranteed
// clearance-independent island (an l0 fact and an l0-headed rule over it)
// so the campaign always exercises the claimed-independent class, and every
// third program gets an injected downgrade rule — an l0 head fed from the
// chain's top level — so the dependent class demonstrably varies.
func flowCases(seed int64, n int) []flowCase {
	out := make([]flowCase, 0, n)
	for i := 0; i < n; i++ {
		cfg := workload.ProgramConfig{
			Levels: 2 + i%3,
			Facts:  3 + i%5,
			Rules:  1 + i%3,
			Preds:  2,
			Poly:   0.5,
			Seed:   seed + int64(i),
		}
		src := workload.ProgramSource(cfg)
		bottom, top := workload.Level(0), workload.Level(cfg.Levels-1)
		src += fmt.Sprintf("%s[p7(k0: a -%s-> base)].\n", bottom, bottom)
		src += fmt.Sprintf("%s[q7(K: d -%s-> echoed)] :- %s[p7(K: a -C-> V)] << fir.\n",
			bottom, bottom, bottom)
		if i%3 == 0 {
			src += fmt.Sprintf("%s[q8(K: d -%s-> leak)] :- %s[p0(K: a -C-> V)] << opt.\n",
				bottom, bottom, top)
		}
		db, err := multilog.Parse(src)
		if err != nil {
			//vet:allow nopanic -- a generator bug must abort the campaign loudly
			panic(fmt.Sprintf("differential: flow generator emitted unparsable program:\n%s\n%v", src, err))
		}
		out = append(out, flowCase{seed: cfg.Seed, src: src, db: db, levels: cfg.Levels})
	}
	return out
}

// RunFlowCampaign generates n seeded databases, runs the information-flow
// analysis on each, and probes every analyzed m-predicate at the chain's
// bottom level (the one level every user dominates) under all four belief
// readings, as every user, through the Figure 12 reduction. A predicate the
// analysis claims clearance-independent must answer byte-identically for
// every user; a predicate whose answers vary must not carry the claim. Each
// case is reduced once per user, at its first probe, and every probe is
// answered through that reduction as reduceOracle answers it.
func RunFlowCampaign(seed int64, n int) FlowCampaignResult {
	res := FlowCampaignResult{Programs: n}
	for _, c := range flowCases(seed, n) {
		flow, err := analysis.AnalyzeFlow(c.db)
		if err != nil {
			//vet:allow nopanic -- generated lattices are valid chains by construction
			panic(fmt.Sprintf("differential: flow analysis rejected generated program: %v", err))
		}
		users := make([]lattice.Label, c.levels)
		for l := 0; l < c.levels; l++ {
			users[l] = workload.Level(l)
		}
		reds := make([]*multilog.Reduction, len(users))
		answer := func(ui int, q multilog.Query) (Result, error) {
			if reds[ui] == nil {
				red, err := multilog.Reduce(c.db, users[ui])
				if err != nil {
					return Result{}, err
				}
				reds[ui] = red
			}
			return reductionAnswer(reds[ui], q)
		}
		bottom := workload.Level(0)
		for _, pred := range flow.PredNames() {
			info := flow.Preds[pred]
			res.Preds++
			if info.ClearanceIndependent {
				res.Independent++
			} else {
				res.Dependent++
			}
			varied := false
			for _, mode := range []string{"", " << fir", " << opt", " << cau"} {
				probe := fmt.Sprintf("%s[%s(K: %s -C-> V)]%s", bottom, pred, flowProbeAttr(pred), mode)
				q, err := multilog.ParseGoals(probe)
				if err != nil {
					//vet:allow nopanic -- a malformed probe is a harness bug, not a test failure
					panic(fmt.Sprintf("differential: bad flow probe %q: %v", probe, err))
				}
				res.Probes++
				results := make(map[string]string, len(users))
				first, same := "", true
				for ui, user := range users {
					r, err := answer(ui, q)
					rendered := "error: <nil>"
					if err != nil {
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
				varied = true
				if info.ClearanceIndependent {
					res.Violations = append(res.Violations, &FlowViolation{
						Seed: c.seed, Source: c.src, Pred: pred, Probe: probe, Results: results,
					})
				}
			}
			if varied {
				res.Varied++
			}
		}
	}
	return res
}
