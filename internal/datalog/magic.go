package datalog

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/resource"
	"repro/internal/term"
)

// MagicSet rewrites a program for a specific query goal using the
// generalized magic-sets transformation, the optimization CORAL is built
// around: bottom-up evaluation of the rewritten program derives only the
// facts relevant to the query's bound arguments, combining the goal
// direction of top-down resolution with the termination of bottom-up
// fixpoints.
//
// The transformation:
//
//  1. adorns IDB predicates with a 'b'/'f' pattern per argument, starting
//     from the query's constants and propagating left-to-right through
//     rule bodies (the standard sideways information passing strategy);
//  2. introduces magic predicates carrying the bound arguments, with one
//     magic rule per IDB body occurrence;
//  3. seeds the magic predicate of the query with its bound arguments.
//
// It returns the rewritten program and the adorned query goal to evaluate
// against it. Negation is supported only over EDB predicates (facts-only):
// magic rewriting under negated IDB literals would change stratification,
// so such programs are rejected — callers fall back to plain evaluation.
func MagicSet(p *Program, query Atom) (*Program, Atom, error) {
	if query.IsBuiltin() {
		return nil, Atom{}, fmt.Errorf("datalog: cannot magic-rewrite a built-in query")
	}
	// IDB = predicates defined by at least one proper rule.
	idb := map[string]bool{}
	for _, c := range p.Clauses {
		if !c.IsFact() {
			idb[c.Head.Pred] = true
		}
	}
	for _, c := range p.Clauses {
		for _, l := range c.Body {
			if l.Negated && idb[l.Atom.Pred] {
				return nil, Atom{}, fmt.Errorf("datalog: magic sets does not support negation over IDB predicate %s", l.Atom.Pred)
			}
		}
	}
	rulesFor := map[string][]Clause{}
	out := &Program{}
	for _, c := range p.Clauses {
		if c.IsFact() || !idb[c.Head.Pred] {
			if idb[c.Head.Pred] {
				// An IDB predicate can also have facts; they are emitted
				// per adornment below.
				rulesFor[c.Head.Pred] = append(rulesFor[c.Head.Pred], c)
				continue
			}
			out.Add(c) // EDB clause: carried over verbatim
			continue
		}
		rulesFor[c.Head.Pred] = append(rulesFor[c.Head.Pred], c)
	}

	if !idb[query.Pred] {
		// Querying an EDB predicate: nothing to specialize.
		return p, query, nil
	}

	queryAd := AdornmentOf(query, map[string]bool{})
	type job struct {
		pred, ad string
	}
	done := map[job]bool{}
	work := []job{{query.Pred, queryAd}}
	for len(work) > 0 {
		j := work[0]
		work = work[1:]
		if done[j] {
			continue
		}
		done[j] = true
		for _, c := range rulesFor[j.pred] {
			if len(c.Head.Args) != len(j.ad) {
				continue
			}
			if c.IsFact() {
				// Facts of an IDB predicate become guarded rules so only
				// magic-relevant instances survive.
				head := adornAtom(c.Head, j.ad)
				body := []Literal{Pos(magicAtom(c.Head, j.ad))}
				out.Add(Clause{Head: head, Body: body})
				continue
			}
			adorned, magicRules, calls := adornRule(c, j.ad, idb)
			out.Add(adorned)
			out.Add(magicRules...)
			for _, call := range calls {
				if !done[call] {
					work = append(work, call)
				}
			}
		}
	}
	// Seed: the magic fact for the query's bound arguments.
	seed := magicAtom(query, queryAd)
	if !seed.IsGround() {
		return nil, Atom{}, fmt.Errorf("datalog: internal: magic seed %s not ground", seed)
	}
	out.Add(Fact(seed))
	return out, adornAtom(query, queryAd), nil
}

// AdornmentOf computes the b/f pattern of an atom given the currently
// bound variables: an argument is bound when it is ground or all its
// variables are bound. It is the magic-sets rewrite's definition of an
// adornment.
func AdornmentOf(a Atom, bound map[string]bool) string {
	var b strings.Builder
	for _, t := range a.Args {
		vars := t.Vars(nil)
		isBound := true
		for _, v := range vars {
			if !bound[v] {
				isBound = false
				break
			}
		}
		if isBound {
			b.WriteByte('b')
		} else {
			b.WriteByte('f')
		}
	}
	return b.String()
}

func adornedName(pred, ad string) string { return pred + "__" + ad }

func magicName(pred, ad string) string { return "m__" + pred + "__" + ad }

// adornAtom renames the atom to its adorned variant.
func adornAtom(a Atom, ad string) Atom {
	return Atom{Pred: adornedName(a.Pred, ad), Args: a.Args}
}

// magicAtom builds the magic atom carrying only the bound arguments.
func magicAtom(a Atom, ad string) Atom {
	var args []term.Term
	for i, t := range a.Args {
		if ad[i] == 'b' {
			args = append(args, t)
		}
	}
	return Atom{Pred: magicName(a.Pred, ad), Args: args}
}

// adornRule rewrites one rule for a head adornment: the adorned rule gets
// the magic guard plus the (recursively adorned) body, and each IDB body
// occurrence yields a magic rule passing the bindings sideways.
func adornRule(c Clause, headAd string, idb map[string]bool) (Clause, []Clause, []struct{ pred, ad string }) {
	bound := map[string]bool{}
	for i, t := range c.Head.Args {
		if headAd[i] == 'b' {
			for _, v := range t.Vars(nil) {
				bound[v] = true
			}
		}
	}
	guard := Pos(magicAtom(c.Head, headAd))
	newBody := []Literal{guard}
	var magicRules []Clause
	var calls []struct{ pred, ad string }
	// prefix holds the literals evaluated so far (for magic rule bodies).
	// The body is reordered (negation and '!=' last) so every prefix cut at
	// an IDB call keeps the positive literals that range-restrict it.
	prefix := []Literal{guard}
	for _, l := range OrderBody(c.Body) {
		if !l.Negated && idb[l.Atom.Pred] && !l.Atom.IsBuiltin() {
			ad := AdornmentOf(l.Atom, bound)
			// Magic rule: the bindings that reach this call.
			magicRules = append(magicRules, Clause{
				Head: magicAtom(l.Atom, ad),
				Body: append([]Literal(nil), prefix...),
			})
			calls = append(calls, struct{ pred, ad string }{l.Atom.Pred, ad})
			adorned := Literal{Atom: adornAtom(l.Atom, ad)}
			newBody = append(newBody, adorned)
			prefix = append(prefix, adorned)
		} else {
			newBody = append(newBody, l)
			prefix = append(prefix, l)
		}
		// Sideways information passing: positive literals and equalities
		// bind their variables for the literals to their right.
		if !l.Negated && l.Atom.Pred != BuiltinNeq {
			for _, v := range l.Atom.Vars(nil) {
				bound[v] = true
			}
		}
	}
	adornedHead := adornAtom(c.Head, headAd)
	return Clause{Head: adornedHead, Body: newBody}, magicRules, calls
}

// QueryMagic answers a goal with the magic-sets rewriting when applicable,
// falling back to plain evaluation otherwise. Answers are identical to
// Query's; only the work differs.
func QueryMagic(p *Program, edb *Store, goal Atom) ([]term.Subst, error) {
	rewritten, adornedGoal, err := MagicSet(p, goal)
	if err != nil {
		return Query(p, edb, goal)
	}
	model, err := Eval(rewritten, edb)
	if err != nil {
		return nil, err
	}
	return QueryStore(model, adornedGoal), nil
}

// QueryMagicLimited is QueryMagic bounded by ctx and limits. On a
// resource-limit stop it returns the answers visible in the partial model
// alongside the error.
func QueryMagicLimited(ctx context.Context, p *Program, edb *Store, goal Atom, limits resource.Limits) ([]term.Subst, Stats, error) {
	rewritten, adornedGoal, err := MagicSet(p, goal)
	if err != nil {
		return QueryLimited(ctx, p, edb, goal, limits)
	}
	model, stats, err := EvalLimited(ctx, rewritten, edb, limits)
	if err != nil {
		if model != nil && resource.IsLimit(err) {
			return QueryStore(model, adornedGoal), stats, err
		}
		return nil, stats, err
	}
	return QueryStore(model, adornedGoal), stats, nil
}
