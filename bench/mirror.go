package main

// The traced run and its mirror pipeline.
//
// Spans are recorded from the benchmark's own files, so they can only wrap
// calls the benchmark makes. Each op therefore runs twice. First for real:
// server.Client → loopback → the server's handler inside this process,
// which gives the nested spans server.client_roundtrip ⊃ server.handler.
// Then as a replay: the mirror calls the layers' public functions in the
// order Server.Query and Server.Update call them, on state of its own (a
// database, per-clearance reductions, an idle admission controller, a plan
// cache and a WAL of its own at the same fsync mode), one span per call
// under a mirror.replay span that carries the same op id. What the handler
// spent that no replayed call accounts for is trace.residual_ratio.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/admission"
	"repro/internal/compile"
	"repro/internal/lattice"
	"repro/internal/lint"
	"repro/internal/multilog"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/wal"
)

// The daemon's defaults, which the in-process server and the mirror's
// controller are built with (cmd/multilogd's flag defaults).
const (
	daemonMaxInflight = 64
	costRead          = 4 // server.costRead
	costWrite         = 8 // server.costWrite
	costPrepare       = 16
)

type mirror struct {
	rec    *recorder
	parent int // the span new spans hang under

	db     *multilog.Database
	reds   map[lattice.Label]*multilog.Reduction
	hasInc map[lattice.Label]bool // the reduction owns an incremental engine
	impact *multilog.ImpactGraph
	adm    *admission.Controller
	plans  *compile.Cache
	wal    *wal.Store
}

func newMirror(rec *recorder, src, walDir string) (*mirror, error) {
	db, err := multilog.Parse(src)
	if err != nil {
		return nil, err
	}
	store, _, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	return &mirror{rec: rec, db: db, reds: map[lattice.Label]*multilog.Reduction{}, hasInc: map[lattice.Label]bool{},
		adm:   admission.New(admission.Config{MaxInflight: daemonMaxInflight}),
		plans: compile.NewCache(256), wal: store}, nil
}

// span times f as a child of the current span; spans opened inside f nest
// under it.
func (m *mirror) span(name string, f func()) {
	id := m.rec.begin(name, m.parent)
	prev := m.parent
	if id != 0 {
		m.parent = id
	}
	f()
	m.parent = prev
	m.rec.end(id)
}

func (m *mirror) admitDone(ctx context.Context, pri admission.Priority, cost int) error {
	var err error
	m.span("admission.admit_done", func() {
		var t *admission.Ticket
		if t, err = m.adm.Admit(ctx, pri, cost); err == nil {
			t.Done(time.Millisecond, false)
		}
	})
	return err
}

// decode and encode replay the handler's JSON work: decoding the request
// body into dst, and on the way out marshalling the response.
func (m *mirror) decode(req, dst any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	m.span("server.json_codec", func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(dst)
	})
	return err
}

func (m *mirror) encode(resp any) error {
	var err error
	m.span("server.json_codec", func() { _, err = json.Marshal(resp) })
	return err
}

// reduction returns the clearance's prepared reduction, building it the
// way snapshot.reductionAt does on a clearance's first query.
func (m *mirror) reduction(ctx context.Context, u lattice.Label) (*multilog.Reduction, error) {
	if red := m.reds[u]; red != nil {
		return red, nil
	}
	var red *multilog.Reduction
	var err error
	m.span("multilog.reduce", func() { red, err = multilog.Reduce(m.db, u) })
	if err != nil {
		return nil, err
	}
	// compile.PrepareReduction, spelled out so that the plan comes from the
	// mirror's own cache: the in-process server shares compile.DefaultCache
	// with anything else in this process, and a plan it compiled a moment
	// ago would make the mirror's compile free.
	fallback := false
	m.span("compile.prepare", func() {
		var plan *compile.Plan
		m.span("compile.plan", func() { plan, _, err = m.plans.Plan(red.Program) })
		if err != nil {
			fallback = compile.IsFallback(err)
			return
		}
		model, _, rerr := plan.Run(ctx, red.Program, nil, compile.Options{})
		if err = rerr; err == nil {
			red.InstallPrepared(model)
		}
	})
	if fallback {
		m.span("datalog.prepare_interp", func() { err = red.Prepare(ctx, resource.Limits{}) })
		m.hasInc[u] = true
	}
	if err != nil {
		return nil, err
	}
	m.reds[u] = red
	return red, nil
}

// query replays Server.Query. cached says the server answered from its
// result cache, which the mirror has no copy of: the replay then stops
// after the parse and rewrite, as the server did. On a miss it returns the
// mirror's own answers.
func (m *mirror) query(ctx context.Context, req server.QueryRequest, sess int, resp *server.QueryResponse) ([]map[string]string, error) {
	var got server.QueryRequest
	if err := m.decode(req, &got); err != nil {
		return nil, err
	}
	var goals multilog.Query
	var err error
	m.span("multilog.parse_goals", func() { goals, err = multilog.ParseGoals(got.Query) })
	if err != nil {
		return nil, err
	}
	for i, g := range goals {
		if g.Kind == multilog.GoalM {
			goals[i] = multilog.BGoal(g.M, multilog.Mode(sessionMode(sess)))
		}
	}
	_ = goals.String() // the canonical text the result cache is keyed on
	var rendered []map[string]string
	if !resp.Cached {
		u := lattice.Label(fmt.Sprintf("l%d", sessionLevel(sess)))
		pri, cost := admission.Read, costRead
		if m.reds[u] == nil {
			pri, cost = admission.Prepare, costPrepare
		}
		if err := m.admitDone(ctx, pri, cost); err != nil {
			return nil, err
		}
		red, err := m.reduction(ctx, u)
		if err != nil {
			return nil, err
		}
		var answers []multilog.Answer
		m.span("multilog.match", func() { answers, _, err = red.QueryPrepared(ctx, goals, resource.Limits{}) })
		if err != nil {
			return nil, err
		}
		rendered = make([]map[string]string, len(answers))
		for i, a := range answers {
			rendered[i] = renderAnswer(a)
		}
		m.span("multilog.query_deps", func() { red.QueryDeps(goals) })
	}
	return rendered, m.encode(resp)
}

// walUpdate has the JSON shape of the server's update log record.
type walUpdate struct {
	DB        string `json:"db"`
	Clauses   string `json:"clauses"`
	Clearance string `json:"clearance"`
	Retract   bool   `json:"retract,omitempty"`
}

// update replays Server.Update and preparedProgram.update.
func (m *mirror) update(ctx context.Context, req server.UpdateRequest, sess int, retract bool, resp *server.UpdateResponse) error {
	var got server.UpdateRequest
	if err := m.decode(req, &got); err != nil {
		return err
	}
	if err := m.admitDone(ctx, admission.Write, costWrite); err != nil {
		return err
	}
	var delta *multilog.Database
	var err error
	m.span("multilog.parse_clauses", func() { delta, err = multilog.Parse(got.Clauses) })
	if err != nil {
		return err
	}
	clauses := append(append([]multilog.Clause{}, delta.Sigma...), delta.Pi...)
	var next *multilog.Database
	m.span("multilog.clone", func() { next = m.db.Clone() })
	factsOnly := true
	for _, c := range clauses {
		factsOnly = factsOnly && c.IsFact()
		if !retract {
			if err := next.AddClause(c); err != nil {
				return err
			}
		}
	}
	if retract {
		removeClauses(&next.Sigma, delta.Sigma)
		removeClauses(&next.Pi, delta.Pi)
	}
	var diags lint.Diagnostics
	m.span("lint.multilog", func() { diags = lint.MultiLog(next, lint.Options{File: "bench"}) })
	if diags.HasErrors() {
		return fmt.Errorf("mirror: lint rejects the update: %s", diags)
	}
	if factsOnly {
		m.span("multilog.impact", func() {
			if m.impact == nil {
				m.impact, err = multilog.NewImpactGraph(m.db)
			}
			if err == nil {
				_, err = m.impact.Impact(clauses)
			}
		})
		if err != nil {
			return err
		}
	} else {
		// A rule write strands every cached plan of this program and changes
		// the rules the impact graph was built from.
		m.plans.Invalidate(planPreds(m.reds))
		m.impact = nil
	}
	levels := make([]string, 0, len(m.reds))
	for u := range m.reds {
		levels = append(levels, string(u))
	}
	sort.Strings(levels)
	reds := map[lattice.Label]*multilog.Reduction{}
	for _, l := range levels {
		u := lattice.Label(l)
		var red *multilog.Reduction
		m.span("multilog.reduce", func() { red, err = multilog.Reduce(next, u) })
		if err != nil {
			return err
		}
		// AdvanceFrom patches the old reduction's incremental engine when it
		// has one and the rules are unchanged; otherwise it is a full
		// interpreted Prepare. The mirror decides the same way up front, so
		// that the two costs land in spans of their own.
		if m.hasInc[u] && factsOnly {
			m.span("multilog.advance", func() { _, err = red.AdvanceFrom(ctx, m.reds[u], resource.Limits{}) })
		} else {
			m.span("datalog.prepare_interp", func() { err = red.Prepare(ctx, resource.Limits{}) })
		}
		if err != nil {
			return err
		}
		m.hasInc[u] = true
		reds[u] = red
	}
	payload, err := json.Marshal(walUpdate{DB: "bench", Clauses: got.Clauses,
		Clearance: fmt.Sprintf("l%d", sessionLevel(sess)), Retract: retract})
	if err != nil {
		return err
	}
	m.span("wal.append", func() { _, err = m.wal.Append(wal.TypeUpdate, payload) })
	if err != nil {
		return err
	}
	m.db, m.reds = next, reds
	return m.encode(resp)
}

// removeClauses drops from dst the clauses that render like one of del, as
// the server's retract does.
func removeClauses(dst *[]multilog.Clause, del []multilog.Clause) {
	if len(del) == 0 {
		return
	}
	gone := map[string]bool{}
	for _, c := range del {
		gone[c.String()] = true
	}
	kept := (*dst)[:0]
	for _, c := range *dst {
		if !gone[c.String()] {
			kept = append(kept, c)
		}
	}
	*dst = kept
}

// planPreds lists the translated predicates the prepared reductions
// mention: the set the server invalidates compiled plans by.
func planPreds(reds map[lattice.Label]*multilog.Reduction) []string {
	seen := map[string]bool{}
	var preds []string
	for _, red := range reds {
		for _, c := range red.Program.Clauses {
			names := []string{c.Head.Pred}
			for _, l := range c.Body {
				if !l.Atom.IsBuiltin() {
					names = append(names, l.Atom.Pred)
				}
			}
			for _, p := range names {
				if !seen[p] {
					seen[p] = true
					preds = append(preds, p)
				}
			}
		}
	}
	return preds
}
