// Package lint is the semantic static-analysis layer for MultiLog and
// Datalog programs: a position-carrying diagnostics framework plus a
// registry of passes that reject and explain bad programs *before*
// evaluation.
//
// The paper's Theorem 6.1 (operational and reduction semantics agree) is
// proved only for well-formed inputs: safe, range-restricted, stratifiable
// clauses whose security components are coherent. The engine checks some of
// these at evaluation time, but reports only the first violation and gives
// no source position. This package collects *all* findings, each carrying a
// stable code, a severity, a file:line:col span, and where possible a
// suggested fix, so that a front-end (cmd/multivet, `multilog check`) can
// present them the way a compiler would.
package lint

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/datalog"
	"repro/internal/multilog"
)

// Severity grades a finding.
type Severity int

const (
	// Error findings violate a precondition of the semantics (Theorem 6.1
	// does not apply); the program should not be evaluated.
	Error Severity = iota
	// Warning findings are almost certainly bugs (dead rules, duplicate
	// rules) but do not change the semantics of what remains.
	Warning
	// Info findings are stylistic.
	Info
)

// String renders the severity the way compilers spell it.
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	default:
		return "info"
	}
}

// Diagnostic is one finding: a coded, positioned, explained violation.
type Diagnostic struct {
	Code     string           // stable pass code, e.g. "DL001"
	Severity Severity         //
	File     string           // source file name ("" renders as <input>)
	Pos      datalog.Position // 1-based line:col; zero when unknown
	Message  string           // human explanation
	Fix      string           // optional suggested fix
}

// String renders "file:line:col: severity: message [code]" plus the
// suggested fix on a second line when present.
func (d Diagnostic) String() string {
	file := d.File
	if file == "" {
		file = "<input>"
	}
	s := fmt.Sprintf("%s:%s: %s: %s [%s]", file, d.Pos, d.Severity, d.Message, d.Code)
	if d.Fix != "" {
		s += "\n\tfix: " + d.Fix
	}
	return s
}

// Diagnostics is a collection of findings.
type Diagnostics []Diagnostic

// Sort orders findings by position, then code, then message, so output is
// deterministic regardless of pass execution order.
func (ds Diagnostics) Sort() {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Message < b.Message
	})
}

// HasErrors reports whether any finding is Error-severity.
func (ds Diagnostics) HasErrors() bool {
	for _, d := range ds {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// String renders one finding per line.
func (ds Diagnostics) String() string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// reporter accumulates findings for one file.
type reporter struct {
	file  string
	diags Diagnostics
}

func (r *reporter) report(code string, sev Severity, pos datalog.Position, format string, args ...any) *Diagnostic {
	r.diags = append(r.diags, Diagnostic{
		Code: code, Severity: sev, File: r.file, Pos: pos,
		Message: fmt.Sprintf(format, args...),
	})
	return &r.diags[len(r.diags)-1]
}

// Options configure a lint run.
type Options struct {
	// File names the source in diagnostics.
	File string
	// Modes lists user-defined belief modes (beyond fir/opt/cau) that the
	// deployment registers; references to them are not flagged by ML002.
	Modes []multilog.Mode
}

// PassInfo describes one registered pass for catalogs (-passes, DESIGN.md).
type PassInfo struct {
	Code     string
	Name     string
	Severity Severity
	Lang     string // "datalog", "multilog"
	Doc      string
}

// Passes returns the pass catalog. Datalog passes also run over the
// classical component Π (and the range-restriction pass over Σ) of a
// MultiLog database.
func Passes() []PassInfo {
	return []PassInfo{
		{"DL000", "parse", Error, "datalog", "syntax errors reported by the parser, repositioned as diagnostics"},
		{"DL001", "safety", Error, "datalog", "range restriction: every head variable and every variable under negation or '!=' must be bound by a positive body literal (Theorem 6.1 precondition)"},
		{"DL002", "undefined", Error, "datalog", "a body literal or query references a predicate with no facts and no rules"},
		{"DL003", "unused", Warning, "datalog", "a predicate is defined but unreachable from any query (only runs when the program has queries)"},
		{"DL004", "arity", Error, "datalog", "one predicate used with two different arities; the engine keys relations by name, so this is almost always a typo"},
		{"DL005", "duplicate", Warning, "datalog", "two clauses are identical up to variable renaming"},
		{"DL006", "subsumed", Warning, "datalog", "a clause is subsumed by a more general clause and can never contribute a new fact"},
		{"DL007", "deadrule", Warning, "datalog", "a rule body depends (transitively) on a predicate that no fact or live rule can ever derive; the rule can never fire in any engine"},
		{"DL008", "stratify", Error, "datalog", "negation through recursion; the offending dependency cycle is spelled out (Theorem 6.1 precondition)"},
		{"DL009", "cartesian", Info, "datalog", "a rule body's positive literals split into variable-disjoint groups, so the body computes a cartesian product"},
		{"DL010", "nonlinear", Info, "datalog", "two or more body literals sit in the head's recursive component; seminaive evaluation re-joins each per round"},
		{"DL011", "fanout", Info, "datalog", "the estimated (first-order) join size of a rule body exceeds the fan-out threshold"},
		{"ML000", "parse", Error, "multilog", "syntax errors reported by the parser, repositioned as diagnostics"},
		{"ML001", "malformed-belief", Error, "multilog", "a belief or m-atom whose security level or classification is the distinguished null or a compound term"},
		{"ML002", "belief-mode", Error, "multilog", "a b-atom uses a mode that is neither built-in (fir, opt, cau) nor defined by bel/7 clauses in Pi nor registered"},
		{"ML003", "dominance", Error, "multilog", "a ground m- or b-atom whose assertion level fails to dominate the believed fact's classification in the security lattice (the paper's dominance order c <= s)"},
		{"ML004", "admissible", Error, "multilog", "Definition 5.3 admissibility: a security level or classification constant is not asserted by Lambda, or Lambda does not define a partial order"},
		{"ML005", "downgrade", Warning, "multilog", "downgrade channel: a rule's visible head depends (transitively) on premises classified above the head's level, so low-cleared subjects observe consequences of facts they cannot see"},
		{"ML006", "implicit-mode", Info, "multilog", "a plain m-atom reads a predicate asserted at two comparable levels — raw visibility is the firm mode in disguise, and opt/cau answers diverge"},
		{"ML007", "clearance-dependent", Info, "multilog", "a stored query fixes a level whose derivation cone reaches higher classifications, so its answers vary with the asker's clearance"},
		{"ML008", "unsatisfiable", Warning, "multilog", "no asserted level dominates a rule's head and body levels jointly, so no subject can both fire the rule and see its result"},
		{"ML009", "reserved", Error, "multilog", "a clause or query names a relation the reduction introduces (mlrel_, mlbel_, mlexceeded_), or a Pi clause defines dominate: those relations hold cells no clearance guard filters"},
	}
}

// Datalog runs all Datalog passes over the program and returns the sorted
// findings.
func Datalog(p *datalog.Program, opts Options) Diagnostics {
	r := &reporter{file: opts.File}
	lintDatalogSafety(r, p)
	lintDatalogPredicates(r, p)
	lintDatalogArity(r, p)
	lintDatalogDuplicates(r, p)
	lintDatalogDeadRules(r, p)
	lintDatalogStratify(r, p)
	lintDatalogCost(r, p)
	r.diags.Sort()
	return r.diags
}

// MultiLog runs all MultiLog passes over the database — the MultiLog-
// specific security checks plus the Datalog passes over the classical
// component Π and range restriction over Σ — and returns sorted findings.
func MultiLog(db *multilog.Database, opts Options) Diagnostics {
	r := &reporter{file: opts.File}
	lintMultiLogErrors(r, db, db, opts)
	lintMultiLogFlow(r, db)
	pi := piProgram(db)
	lintDatalogDuplicates(r, pi)
	lintDatalogCost(r, pi)
	r.diags.Sort()
	return r.diags
}

// MultiLogWrite lints next, the version a write made of a lint-clean one by
// adding the clauses of added and taking out those of removed, with the Error
// passes alone: its findings are MultiLog(next.Database())'s Error findings,
// which decide whether the write may be published. Λ is fixed, and those
// passes judge a Σ clause against Λ and Π, never against another Σ clause, so
// the write lints what it can have broken, judged in next.Env():
//
//   - the Σ clauses it adds (a Σ retract breaks nothing);
//   - when it carries a Π clause, also Λ, Π and the stored queries: Π's
//     Datalog passes read all of Π, and a Π retract can undefine a predicate
//     a Π body or a query reads. A Π add cannot newly fail a pass over Σ:
//     definedness and belief modes only grow.
//
// It lints Σ in two cases alone. A retract that removes a bel/7 clause can
// take away a mode a b-atom anywhere uses, so it runs the full lint. A
// retract that leaves a Π predicate undefined asks next whether a Σ body
// reads it (Version.SigmaReads, an index, not a walk), and runs the full lint
// if one does, so that the goal DL002 reports first is the full lint's. No
// other write reads or materializes next's Σ.
func MultiLogWrite(next *multilog.Version, added, removed []multilog.Clause, opts Options) Diagnostics {
	env := next.Env()
	check := &multilog.Database{}
	piWrite, full := false, false
	for _, c := range added {
		if c.Head.Kind == multilog.GoalM {
			check.Sigma = append(check.Sigma, c)
		} else {
			piWrite = true
		}
	}
	var defined, undefined map[string]bool
	for _, c := range removed {
		if c.Head.Kind == multilog.GoalM {
			continue
		}
		piWrite = true
		h := c.Head.P
		if h.Pred == multilog.UserBelPred && len(h.Args) == 7 {
			full = true
		}
		if defined == nil {
			defined, undefined = definedPreds(env), map[string]bool{}
		}
		if !defined[h.Pred] {
			undefined[h.Pred] = true
		}
	}
	for pred := range undefined {
		full = full || next.SigmaReads(pred)
	}
	r := &reporter{file: opts.File}
	if full {
		db := next.Database()
		lintMultiLogErrors(r, db, db, opts)
	} else {
		if piWrite {
			check.Lambda, check.Pi, check.Queries = env.Lambda, env.Pi, env.Queries
		}
		lintMultiLogErrors(r, check, env, opts)
	}
	r.diags.Sort()
	return r.diags
}

// lintMultiLogErrors runs every Error-severity MultiLog pass over the clauses
// and queries of db, judged in env's Λ and Π (env is db itself, or the
// database db's clauses are written into).
func lintMultiLogErrors(r *reporter, db, env *multilog.Database, opts Options) {
	lintMultiLogSafety(r, db, env)
	lintMultiLogBeliefs(r, db, env, opts)
	lintMultiLogLattice(r, db, env)
	lintMultiLogReserved(r, db)
	// Π is a classical program; the Datalog Error passes apply to it.
	pi := piProgram(db)
	lintDatalogSafety(r, pi)
	lintDatalogArity(r, pi)
	lintDatalogStratify(r, pi)
}

// FromParseError converts a parser error into a positioned diagnostic
// (DL000/ML000). Both front-ends return *datalog.SyntaxError, so the
// position and language come out structurally; errors of any other type
// keep the whole message at position zero.
func FromParseError(file string, err error) Diagnostic {
	d := Diagnostic{Code: "DL000", Severity: Error, File: file, Message: err.Error()}
	var se *datalog.SyntaxError
	if !errors.As(err, &se) {
		return d
	}
	if se.Lang == "multilog" {
		d.Code = "ML000"
	}
	d.Pos = se.Pos
	d.Message = se.Msg
	return d
}

// Source lints Datalog or MultiLog source text. lang is "datalog" or
// "multilog"; a parse failure yields a single DL000/ML000 finding rather
// than an error — the error return is reserved for unknown languages.
func Source(lang, src string, opts Options) (Diagnostics, error) {
	switch lang {
	case "datalog":
		p, err := datalog.Parse(src)
		if err != nil {
			return Diagnostics{FromParseError(opts.File, err)}, nil
		}
		return Datalog(p, opts), nil
	case "multilog":
		db, err := multilog.Parse(src)
		if err != nil {
			return Diagnostics{FromParseError(opts.File, err)}, nil
		}
		return MultiLog(db, opts), nil
	}
	return nil, fmt.Errorf("lint: unknown language %q (want datalog or multilog)", lang)
}
