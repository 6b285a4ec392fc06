package main

// The correctness oracle: answers are recomputed by the interpreted
// reference path — multilog.Reduce and Reduction.QueryContext, whose model
// comes from the semi-naive interpreter, never from internal/compile or the
// incremental engine — on the bench's own copy of the database, and
// compared row for row with what the daemon returned.

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/lattice"
	"repro/internal/multilog"
	"repro/internal/resource"
)

// maxOracleModels bounds how many reference models one run may build. A
// model is one (database state, clearance) pair and costs 0.1–0.5 s on the
// large shape, so the write workloads, which pass through dozens of
// states, verify the states their sampled reads hit most and leave the
// rest unchecked (reported as oracle_checked < oracle_sampled).
const maxOracleModels = 8

// dbState is the set of clauses asserted on top of the generated program.
type dbState map[string]bool

func (s dbState) apply(o op) {
	switch o.kind {
	case opAssert:
		s[o.text] = true
	case opRetract:
		delete(s, o.text)
	}
}

func (s dbState) key() string {
	extra := make([]string, 0, len(s))
	for c := range s {
		extra = append(extra, c)
	}
	sort.Strings(extra)
	return strings.Join(extra, "\n")
}

type oracle struct {
	base  string
	shape shape
	// models is keyed by state key and level; rows memoizes rendered
	// reference answers per model, mode and query.
	models map[string]*multilog.Reduction
	rows   map[string][]string
}

func newOracle(base string, sh shape) *oracle {
	return &oracle{base: base, shape: sh, models: map[string]*multilog.Reduction{}, rows: map[string][]string{}}
}

// model returns the reference reduction for a state at a level, building
// it if the budget allows; nil means over budget.
func (o *oracle) model(stateKey string, lvl int) (*multilog.Reduction, error) {
	key := fmt.Sprintf("%s@l%d", stateKey, lvl)
	if red, ok := o.models[key]; ok {
		return red, nil
	}
	if len(o.models) >= maxOracleModels {
		return nil, nil
	}
	db, err := multilog.Parse(o.base + stateKey + "\n")
	if err != nil {
		return nil, fmt.Errorf("oracle: parsing state: %w", err)
	}
	red, err := multilog.Reduce(db, lattice.Label(fmt.Sprintf("l%d", lvl)))
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	// QueryContext registers belief axioms lazily and throws the model away
	// each time it does. Registering every triple a generated query can
	// name up front leaves exactly one model evaluation per reduction.
	for l := 0; l < o.shape.levels; l++ {
		for _, m := range modes {
			for p := 0; p < o.shape.preds; p++ {
				red.RequireBelief(fmt.Sprintf("p%d", p), lattice.Label(fmt.Sprintf("l%d", l)), multilog.Mode(m))
			}
			for q := 0; q < o.shape.rules; q++ {
				red.RequireBelief(fmt.Sprintf("q%d", q), lattice.Label(fmt.Sprintf("l%d", l)), multilog.Mode(m))
			}
		}
	}
	o.models[key] = red
	return red, nil
}

// expected returns the reference rows for a query asked on session sess in
// the given state; ok is false when the model budget is spent.
func (o *oracle) expected(ctx context.Context, stateKey string, sess int, query string) (rows []string, ok bool, err error) {
	red, err := o.model(stateKey, sessionLevel(sess))
	if red == nil {
		return nil, false, err
	}
	key := fmt.Sprintf("%s@l%d/%s/%s", stateKey, sessionLevel(sess), sessionMode(sess), query)
	if rows, hit := o.rows[key]; hit {
		return rows, true, nil
	}
	goals, err := beliefGoals(query, sessionMode(sess))
	if err != nil {
		return nil, false, err
	}
	answers, err := red.QueryContext(ctx, goals, resource.Limits{})
	if err != nil {
		return nil, false, fmt.Errorf("oracle: %s: %w", query, err)
	}
	rendered := make([]map[string]string, len(answers))
	for i, a := range answers {
		rendered[i] = renderAnswer(a)
	}
	rows = answerRows(rendered)
	o.rows[key] = rows
	return rows, true, nil
}

// beliefGoals parses a query the way Server.Query does: bare m-atoms are
// believed at the session's mode.
func beliefGoals(query, mode string) (multilog.Query, error) {
	goals, err := multilog.ParseGoals(query)
	if err != nil {
		return nil, err
	}
	for i, g := range goals {
		if g.Kind == multilog.GoalM {
			goals[i] = multilog.BGoal(g.M, multilog.Mode(mode))
		}
	}
	return goals, nil
}

func renderAnswer(a multilog.Answer) map[string]string {
	m := make(map[string]string, len(a.Bindings))
	for v, t := range a.Bindings {
		m[v] = t.String()
	}
	return m
}

// answerRows renders answers as sorted "var=term" rows, so two answer sets
// compare byte for byte whatever order the engines produced them in.
func answerRows(answers []map[string]string) []string {
	rows := make([]string, len(answers))
	for i, a := range answers {
		vars := make([]string, 0, len(a))
		for v := range a {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		var b strings.Builder
		for _, v := range vars {
			fmt.Fprintf(&b, "%s=%s ", v, a[v])
		}
		rows[i] = b.String()
	}
	sort.Strings(rows)
	return rows
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
