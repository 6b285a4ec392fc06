package lint

// This file holds the whole-program passes: findings computed by
// internal/analysis (monotone fixpoints over the dependency graph) and
// formatted here as diagnostics. Per-rule passes live in datalog.go /
// multilog.go; these passes see the program as one object — a downgrade
// channel or a cartesian product is invisible rule-locally.

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/multilog"
)

// lintDatalogCost runs the cost/shape analysis: DL009 cartesian-product
// bodies, DL010 nonlinear recursion, DL011 wide-join fan-out. All Info:
// these are performance shapes, not semantic violations.
func lintDatalogCost(r *reporter, p *datalog.Program) {
	cost := analysis.AnalyzeCost(p, analysis.CostOptions{})
	for _, site := range cost.Cartesian {
		parts := make([]string, len(site.Groups))
		for i, g := range site.Groups {
			parts[i] = "{" + strings.Join(g, ", ") + "}"
		}
		d := r.report("DL009", Info, site.Pos,
			"rule body for %s is a cartesian product: %d variable-disjoint groups %s multiply instead of joining",
			site.Head, len(site.Groups), strings.Join(parts, " x "))
		d.Fix = "share a variable between the groups, or split the rule so each product is intentional"
	}
	for _, site := range analysis.Nonlinear(p) {
		d := r.report("DL010", Info, site.Pos,
			"nonlinear recursion in rule for %s: %d body literals (%s) are in its recursive component",
			site.Head, len(site.Recursive), strings.Join(site.Recursive, ", "))
		d.Fix = "prefer a linear formulation; seminaive evaluation re-joins every recursive literal each round"
	}
	for _, site := range cost.Fanout {
		d := r.report("DL011", Info, site.Pos,
			"rule body for %s has estimated join fan-out ~%d rows (threshold %d)",
			site.Head, site.Estimate, analysis.DefaultFanoutThreshold)
		d.Fix = "restrict the body with a selective literal before the wide join, or reorder it"
	}
}

// lintMultiLogFlow runs the MLS information-flow analysis: ML005
// downgrade channels, ML006 implicit firm-mode reads over divergent
// predicates, ML007 clearance-dependent stored queries, ML008 rules no
// clearance can both fire and see. A database whose Λ is not a valid
// poset is skipped — ML004 already reports that.
func lintMultiLogFlow(r *reporter, db *multilog.Database) {
	f, err := analysis.AnalyzeFlow(db)
	if err != nil {
		return
	}
	for _, site := range f.Downgrades {
		via := ""
		if site.Via != "" {
			via = fmt.Sprintf(" (via predicate %s)", site.Via)
		}
		d := r.report("ML005", Warning, site.Pos,
			"downgrade channel: rule derives %s at level %s from %s-classified premises%s; subjects cleared below %s can observe consequences of facts they cannot see",
			site.Pred, site.HeadLevel, site.Source, via, site.Source)
		d.Fix = fmt.Sprintf("raise the head's level or classification to dominate %s, or route the flow through an explicit sanitizing predicate", site.Source)
	}
	for _, site := range f.ImplicitModes {
		d := r.report("ML006", Info, site.Pos,
			"plain m-atom reads %s with raw visibility (the firm mode in disguise): it is asserted at comparable levels %s, so optimistic and cautious beliefs diverge here",
			site.Pred, labelList(site.Levels))
		d.Fix = "make the belief mode explicit: << fir, << opt or << cau"
	}
	for _, site := range f.DependentQueries {
		d := r.report("ML007", Info, site.Pos,
			"stored query fixes level %s, but %s's derivations depend on %s-classified data: answers vary with the asker's clearance",
			site.Level, site.Pred, site.Source)
		d.Fix = fmt.Sprintf("query at a level dominating %s, or accept that answers are clearance-scoped", site.Source)
	}
	for _, site := range f.Unsatisfiable {
		d := r.report("ML008", Warning, site.Pos,
			"rule for %s is unsatisfiable: no asserted level dominates all of %s, so no subject can both fire the rule and see its head",
			site.Pred, labelList(site.Levels))
		d.Fix = fmt.Sprintf("assert a level above %s in Lambda, or lower the rule's levels/classifications", labelList(site.Levels))
	}
}

func labelList(labels []lattice.Label) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = string(l)
	}
	return strings.Join(parts, ", ")
}
