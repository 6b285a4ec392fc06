package differential

import (
	"errors"

	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/multilog"
	"repro/internal/workload"
)

// DatalogCase is one cross-check unit: a program and a query goal.
type DatalogCase struct {
	Seed    int64
	Family  workload.DatalogFamily
	Program *datalog.Program
	Goal    datalog.Atom
}

// MultiLogCase is one cross-check unit: a database, a user level, and a
// conjunctive query.
type MultiLogCase struct {
	Seed     int64
	DB       *multilog.Database
	Source   string
	User     lattice.Label
	Query    multilog.Query
	QuerySrc string
}

// DatalogPrograms generates n seeded programs cycling through the families,
// each paired with its family's query goals.
func DatalogPrograms(seed int64, n int) []DatalogCase {
	var out []DatalogCase
	for i := 0; i < n; i++ {
		cfg := workload.DatalogConfig{
			Family: workload.DatalogFamily(i % workload.NumDatalogFamilies),
			Size:   3 + (i/workload.NumDatalogFamilies)%8,
			Seed:   seed + int64(i),
		}
		prog, goals := workload.DatalogProgram(cfg)
		for _, g := range goals {
			out = append(out, DatalogCase{Seed: cfg.Seed, Family: cfg.Family, Program: prog, Goal: g})
		}
	}
	return out
}

// crossEngineMix is the cross-engine campaign's shape mix: ProgramSource's
// constant-level rules, whose programs the prover answers without hitting
// its depth bound.
var crossEngineMix = workload.Mix{workload.ConstantLevel: 1}

// multilogProgram is one generated database of the cross-engine campaign
// and the queries it is probed with.
type multilogProgram struct {
	*workload.Program
	seed   int64
	db     *multilog.Database
	probes []workload.Probe
}

// multilogPrograms generates n seeded databases from crossEngineMix: chains
// of 2–4 levels with polyinstantiation, each probed (workload.Probes) at a
// level variable and at every level.
func multilogPrograms(seed int64, n int) []multilogProgram {
	out := make([]multilogProgram, 0, n)
	for i := 0; i < n; i++ {
		prog := workload.Generate(workload.ProgramConfig{
			Levels: 2 + i%3, Facts: 3 + i%5, Rules: 1 + i%3, Preds: 2, Poly: 0.5, Seed: seed + int64(i), Mix: crossEngineMix,
		})
		db := mustParse(prog.Source)
		out = append(out, multilogProgram{prog, seed + int64(i), db, workload.Probes(db, prog.Poset, prog.Poset.Labels()...)})
	}
	return out
}

// cases pairs every probe of p with every user level.
func (p multilogProgram) cases() []MultiLogCase {
	var out []MultiLogCase
	for _, user := range p.Poset.Labels() {
		for _, probe := range p.probes {
			out = append(out, MultiLogCase{Seed: p.seed, DB: p.db, Source: p.Source, User: user, Query: probe.Query, QuerySrc: probe.Src})
		}
	}
	return out
}

// MultiLogPrograms generates n seeded databases (multilogPrograms) and pairs
// each probe of each with every user level.
func MultiLogPrograms(seed int64, n int) []MultiLogCase {
	var out []MultiLogCase
	for _, p := range multilogPrograms(seed, n) {
		out = append(out, p.cases()...)
	}
	return out
}

// outcome is one oracle's verdict on a case.
type outcome struct {
	result Result
	err    error
}

func (o outcome) String() string {
	if o.err != nil {
		return "error: " + o.err.Error()
	}
	return o.result.String()
}

// compareOutcomes applies the agreement policy: unsupported oracles are
// skipped; if every oracle hard-errors the case counts as (consistent)
// rejection; otherwise any hard error or any differing supported result is
// a disagreement. It returns the names of the disagreeing oracles.
func compareOutcomes(names []string, outs []outcome) []string {
	ref := -1
	for i, o := range outs {
		if o.err == nil {
			ref = i
			break
		}
	}
	if ref < 0 {
		return nil // every oracle rejected the case; consistent
	}
	var bad []string
	for i, o := range outs {
		if i == ref {
			continue
		}
		switch {
		case errors.Is(o.err, ErrUnsupported):
			// skipped
		case o.err != nil:
			bad = append(bad, names[i])
		case !o.result.Equal(outs[ref].result):
			bad = append(bad, names[i])
		}
	}
	return bad
}

// runDatalogOracles evaluates every oracle on the case.
func runDatalogOracles(p *datalog.Program, goal datalog.Atom) ([]string, []outcome) {
	oracles := DatalogOracles()
	names := make([]string, len(oracles))
	outs := make([]outcome, len(oracles))
	for i, o := range oracles {
		names[i] = o.Name()
		r, err := o.Answer(p, goal)
		outs[i] = outcome{result: r, err: err}
	}
	return names, outs
}

// datalogDisagrees reports whether the oracle set disagrees on (p, goal).
// It is the shrinker's failure predicate.
func datalogDisagrees(p *datalog.Program, goal datalog.Atom) bool {
	names, outs := runDatalogOracles(p, goal)
	return len(compareOutcomes(names, outs)) > 0
}

// CheckDatalog cross-checks one case against every Datalog oracle. On
// disagreement it shrinks the program to a minimal counterexample and
// returns the report; nil means all oracles agree.
func CheckDatalog(c DatalogCase) *Disagreement {
	names, outs := runDatalogOracles(c.Program, c.Goal)
	bad := compareOutcomes(names, outs)
	if len(bad) == 0 {
		return nil
	}
	minimal := ShrinkDatalog(c.Program, func(p *datalog.Program) bool {
		return datalogDisagrees(p, c.Goal)
	})
	mnames, mouts := runDatalogOracles(minimal, c.Goal)
	d := &Disagreement{
		Kind:      "datalog",
		Seed:      c.Seed,
		Family:    c.Family.String(),
		Source:    minimal.String(),
		Query:     c.Goal.String(),
		Disagrees: bad,
		Results:   map[string]string{},
	}
	for i, n := range mnames {
		d.Results[n] = mouts[i].String()
	}
	return d
}

func runMultiLogOracles(oracles []MultiLogOracle, db *multilog.Database, user lattice.Label, q multilog.Query) ([]string, []outcome) {
	names := make([]string, len(oracles))
	outs := make([]outcome, len(oracles))
	for i, o := range oracles {
		names[i] = o.Name()
		r, err := o.Answer(db, user, q)
		outs[i] = outcome{result: r, err: err}
	}
	return names, outs
}

func multilogDisagrees(db *multilog.Database, user lattice.Label, q multilog.Query) bool {
	names, outs := runMultiLogOracles(MultiLogOracles(), db, user, q)
	return len(compareOutcomes(names, outs)) > 0
}

// CheckMultiLog cross-checks one case against both MultiLog semantics
// through oracles (MultiLogOracles), which may keep the database's
// reductions from earlier cases, shrinking the database on disagreement with
// fresh oracles for each candidate. nil means Theorem 6.1 held.
func CheckMultiLog(c MultiLogCase, oracles []MultiLogOracle) *Disagreement {
	names, outs := runMultiLogOracles(oracles, c.DB, c.User, c.Query)
	bad := compareOutcomes(names, outs)
	if len(bad) == 0 {
		return nil
	}
	minimal := ShrinkMultiLog(c.DB, func(db *multilog.Database) bool {
		return multilogDisagrees(db, c.User, c.Query)
	})
	mnames, mouts := runMultiLogOracles(MultiLogOracles(), minimal, c.User, c.Query)
	d := &Disagreement{
		Kind:      "multilog",
		Seed:      c.Seed,
		Family:    "multilog",
		Source:    minimal.String(),
		Query:     c.QuerySrc,
		User:      string(c.User),
		Disagrees: bad,
		Results:   map[string]string{},
	}
	for i, n := range mnames {
		d.Results[n] = mouts[i].String()
	}
	return d
}

// CampaignResult summarizes a cross-check campaign.
type CampaignResult struct {
	Programs      int
	Cases         int
	Disagreements []*Disagreement
	// Mix is the shape mix a MultiLog campaign declares, and Shapes counts
	// the clauses it drew of each shape.
	Mix    workload.Mix
	Shapes map[workload.ClauseShape]int
}

// RunDatalogCampaign cross-checks n seeded Datalog programs (each with its
// family's query goals) against all oracles.
func RunDatalogCampaign(seed int64, n int) CampaignResult {
	res := CampaignResult{Programs: n}
	for _, c := range DatalogPrograms(seed, n) {
		res.Cases++
		if d := CheckDatalog(c); d != nil {
			res.Disagreements = append(res.Disagreements, d)
		}
	}
	return res
}

// RunMultiLogCampaign cross-checks n seeded MultiLog databases at every
// user level against both semantics.
func RunMultiLogCampaign(seed int64, n int) CampaignResult {
	res := CampaignResult{Programs: n, Mix: crossEngineMix, Shapes: map[workload.ClauseShape]int{}}
	for _, p := range multilogPrograms(seed, n) {
		for _, c := range p.Clauses {
			res.Shapes[c.Shape]++
		}
		oracles := MultiLogOracles()
		for _, c := range p.cases() {
			res.Cases++
			if d := CheckMultiLog(c, oracles); d != nil {
				res.Disagreements = append(res.Disagreements, d)
			}
		}
	}
	return res
}
