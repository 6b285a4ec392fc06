package datalog

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/resource"
	"repro/internal/term"
)

// ProofNode is a node of an SLD proof tree: the proved goal instance and
// the subproofs of the clause body used to prove it. A leaf with Rule ==
// "fact" was matched directly against a fact; Rule == "builtin" records an
// in-place built-in evaluation; otherwise Rule names the clause used
// ("clause <n>").
type ProofNode struct {
	Goal     Atom
	Rule     string
	Children []*ProofNode
}

// Height returns the maximum number of nodes on any root-to-leaf branch,
// matching the paper's definition of proof height (§5.4).
func (n *ProofNode) Height() int {
	h := 0
	for _, c := range n.Children {
		if ch := c.Height(); ch > h {
			h = ch
		}
	}
	return h + 1
}

// Size returns the number of nodes in the tree (§5.4).
func (n *ProofNode) Size() int {
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}

// String renders the tree indented, one goal per line.
func (n *ProofNode) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *ProofNode) render(b *strings.Builder, depth int) {
	fmt.Fprintf(b, "%s%s  [%s]\n", strings.Repeat("  ", depth), n.Goal, n.Rule)
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
}

// SLD is a top-down resolution prover over a Datalog program. Negated body
// literals are handled by negation-as-failure against a bottom-up model of
// the program, so SLD answers agree with the stratified semantics.
type SLD struct {
	prog     *Program
	model    *Store // for NAF checks; computed lazily on first negation
	renamer  term.Renamer
	MaxDepth int // resolution depth bound; 0 means the default (512)
	// MaxSteps bounds the total number of resolution steps per Prove call.
	// A depth bound alone does not tame left recursion or cyclic data: SLD
	// explores exponentially many bounded-depth paths before ever hitting
	// it. 0 means the default (1 << 20).
	MaxSteps int
	steps    int
	// Limits bounds the proof search (steps, probes); wall-clock deadlines
	// come from the context passed to ProveContext. Zero means unlimited.
	Limits resource.Limits
	// LastStats reports the resource usage of the most recent Prove call.
	LastStats resource.Stats
	gov       *resource.Governor
	ctx       context.Context
}

// NewSLD builds a prover for the program.
func NewSLD(p *Program) *SLD { return &SLD{prog: p} }

// Answer is one solution to a query: the bindings for the goal's variables
// and the proof tree that justifies it.
type Answer struct {
	Bindings term.Subst
	Proof    *ProofNode
}

// Prove enumerates up to max answers for the goal (max ≤ 0 means all). Each
// answer carries a proof tree whose leaves are facts or built-ins.
func (sld *SLD) Prove(goal Atom, max int) ([]Answer, error) {
	return sld.ProveContext(context.Background(), goal, max)
}

// ProveContext is Prove bounded by ctx and sld.Limits. On a resource-limit
// stop (resource.IsLimit(err)) it returns the answers found so far alongside
// the error; sld.LastStats reports the work done.
func (sld *SLD) ProveContext(ctx context.Context, goal Atom, max int) ([]Answer, error) {
	sld.ctx = ctx
	sld.gov = resource.New(ctx, sld.Limits)
	defer func() { sld.LastStats = sld.gov.Snapshot() }()
	depthBound := sld.MaxDepth
	if depthBound == 0 {
		depthBound = 512
	}
	stepBound := sld.MaxSteps
	if stepBound == 0 {
		stepBound = 1 << 20
	}
	sld.steps = 0
	goalVars := goal.Vars(nil)
	var answers []Answer
	seen := map[string]bool{}
	stop := fmt.Errorf("done")
	var solve func(g Atom, s term.Subst, depth int, k func(term.Subst, *ProofNode) error) error
	solve = func(g Atom, s term.Subst, depth int, k func(term.Subst, *ProofNode) error) error {
		if depth > depthBound {
			return fmt.Errorf("datalog: SLD depth bound %d exceeded proving %s", depthBound, g.Apply(s))
		}
		if sld.steps++; sld.steps > stepBound {
			return fmt.Errorf("datalog: SLD step bound %d exceeded proving %s", stepBound, g.Apply(s))
		}
		if err := sld.gov.Step(); err != nil {
			return err
		}
		switch g.Pred {
		case BuiltinEq:
			s2 := s.Clone()
			if term.Unify(g.Args[0], g.Args[1], s2) {
				return k(s2, &ProofNode{Goal: g.Apply(s2), Rule: "builtin"})
			}
			return nil
		case BuiltinNeq:
			inst := g.Apply(s)
			if !inst.IsGround() {
				return fmt.Errorf("datalog: SLD '!=' on non-ground goal %s", inst)
			}
			if !inst.Args[0].Equal(inst.Args[1]) {
				return k(s, &ProofNode{Goal: inst, Rule: "builtin"})
			}
			return nil
		}
		inst := g.Apply(s)
		for ci, c := range sld.prog.Clauses {
			if c.Head.Pred != g.Pred || c.Head.Arity() != g.Arity() || constantsClash(inst, c.Head) {
				continue
			}
			rc := c.Rename(&sld.renamer)
			s2 := s.Clone()
			if !term.UnifyAll(g.Args, rc.Head.Args, s2) {
				continue
			}
			ruleName := fmt.Sprintf("clause %d", ci+1)
			if rc.IsFact() {
				ruleName = "fact"
			}
			// Prove the body left to right (negation and '!=' deferred to
			// the end so range-restricted clauses cannot flounder),
			// accumulating subproofs.
			body := OrderBody(rc.Body)
			var proveBody func(i int, s term.Subst, subs []*ProofNode) error
			proveBody = func(i int, s term.Subst, subs []*ProofNode) error {
				if i == len(body) {
					return k(s, &ProofNode{Goal: g.Apply(s), Rule: ruleName, Children: subs})
				}
				l := body[i]
				if l.Negated {
					inst := l.Atom.Apply(s)
					if !inst.IsGround() {
						return fmt.Errorf("datalog: SLD floundering on %s in clause %s", l, c)
					}
					m, err := sld.ensureModel()
					if err != nil {
						return err
					}
					if m.Contains(inst) {
						return nil
					}
					return proveBody(i+1, s, append(subs[:len(subs):len(subs)],
						&ProofNode{Goal: inst, Rule: "naf"}))
				}
				return solve(l.Atom, s, depth+1, func(s2 term.Subst, sub *ProofNode) error {
					return proveBody(i+1, s2, append(subs[:len(subs):len(subs)], sub))
				})
			}
			if err := proveBody(0, s2, nil); err != nil {
				return err
			}
		}
		return nil
	}

	err := solve(goal, term.Subst{}, 0, func(s term.Subst, proof *ProofNode) error {
		bindings := term.Subst{}
		for _, v := range goalVars {
			bindings[v] = s.Apply(term.Var(v))
		}
		key := bindings.String()
		if seen[key] {
			return nil
		}
		seen[key] = true
		answers = append(answers, Answer{Bindings: bindings, Proof: proof})
		if max > 0 && len(answers) >= max {
			return stop
		}
		return nil
	})
	if err != nil && err != stop {
		if resource.IsLimit(err) {
			// Graceful degradation: the answers found before the limit hit.
			return answers, err
		}
		return nil, err
	}
	return answers, nil
}

// constantsClash reports whether some argument is a constant in both the goal
// and the clause head, and not the same one: the head cannot unify with the
// goal, so the clause need not be renamed, nor the substitution cloned, to
// find that out.
func constantsClash(goal, head Atom) bool {
	for i, a := range goal.Args {
		if b := head.Args[i]; a.Kind() == term.KindConst && b.Kind() == term.KindConst && !a.Equal(b) {
			return true
		}
	}
	return false
}

// ensureModel lazily computes the NAF model, governed by the Prove call's
// context and limits (a fresh budget: the model is a one-off sub-evaluation,
// but it still honors the caller's deadline).
func (sld *SLD) ensureModel() (*Store, error) {
	if sld.model == nil {
		ctx := sld.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		e := Evaluator{Limits: sld.Limits}
		m, err := e.EvalContext(ctx, sld.prog, nil)
		if err != nil {
			return nil, err
		}
		sld.model = m
	}
	return sld.model, nil
}
