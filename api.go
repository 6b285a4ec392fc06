// Package repro is MultiLog: a from-scratch Go implementation of
// "Belief Reasoning in MLS Deductive Databases" (Hasan M. Jamil, SIGMOD
// 1999) — multilevel-secure relations in the Jajodia-Sandhu model, the
// parametric belief function β with firm / optimistic / cautious modes, the
// MultiLog deductive language with its operational (Figure 9) and reduction
// (Figure 12) semantics, and the §3.2 belief-SQL front-end.
//
// This package is the public API facade: it re-exports the curated surface
// of the internal packages so downstream users have a single import. The
// subsystems, bottom-up:
//
//   - security lattices (Poset, Label, the U<C<S<T builders);
//   - multilevel relations (Relation, Scheme, views-at-level, integrity,
//     polyinstantiating updates, the Mission dataset of Figure 1);
//   - the belief function β and the §3.1 views (Figures 6-8), with a
//     registry for user-defined modes;
//   - the Jukic-Vrbsky baseline (Figures 4-5);
//   - MultiLog itself: ParseMultiLog, Prover (proof trees), Reduce
//     (translation to the bundled Datalog engine plus the Figure 12
//     axioms);
//   - belief-SQL: NewSQLEngine and Execute;
//   - the serving layer: NewQueryServer embeds the cmd/multilogd daemon —
//     concurrent sessions at clearances and belief modes over shared
//     prepared reductions with an invalidating result cache — and
//     NewServerClient speaks its JSON/HTTP protocol.
//
// A five-minute tour lives in examples/quickstart; the figure-by-figure
// reproduction harness is cmd/benchfig and EXPERIMENTS.md.
package repro

import (
	"context"

	"repro/internal/belief"
	"repro/internal/datalog"
	"repro/internal/jv"
	"repro/internal/lattice"
	"repro/internal/mls"
	"repro/internal/mlsql"
	"repro/internal/multilog"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/term"
)

// Security lattices (internal/lattice).
type (
	// Label names a security access class.
	Label = lattice.Label
	// Poset is a finite partial order of labels with lub/glb and
	// dominance queries.
	Poset = lattice.Poset
)

// Canonical military levels (§2): U < C < S < T.
const (
	Unclassified = lattice.Unclassified
	Classified   = lattice.Classified
	Secret       = lattice.Secret
	TopSecret    = lattice.TopSecret
)

var (
	// NewPoset returns an empty security poset.
	NewPoset = lattice.New
	// Chain builds a total order of labels.
	Chain = lattice.Chain
	// Diamond builds the four-point lattice with two incomparable labels.
	Diamond = lattice.Diamond
	// ProductLattice builds the level × category-set access-class lattice.
	ProductLattice = lattice.Product
	// UCS returns the three-level chain U < C < S of the Mission example.
	UCS = lattice.UCS
	// Military returns the four-level chain U < C < S < T.
	Military = lattice.Military
)

// Multilevel relations (internal/mls).
type (
	// Relation is a multilevel relation instance (Definition 2.2).
	Relation = mls.Relation
	// Scheme is a multilevel relation scheme (Definition 2.1).
	Scheme = mls.Scheme
	// Tuple is a multilevel tuple with per-attribute classifications.
	Tuple = mls.Tuple
	// Value is one classified attribute cell.
	Value = mls.Value
	// ViewOptions tunes Relation.ViewAt.
	ViewOptions = mls.ViewOptions
	// Journal wraps a relation with an attributed, replayable audit trail.
	Journal = mls.Journal
	// Store is a thread-safe, journal-backed relation shared by concurrent
	// sessions pinned to clearances; Session is one such handle.
	Store   = mls.Store
	Session = mls.Session
)

var (
	// NewScheme builds a multilevel scheme; the first attribute is the
	// apparent key.
	NewScheme = mls.NewScheme
	// NewRelation returns an empty instance of a scheme.
	NewRelation = mls.NewRelation
	// V builds a classified value; NullV a classified null.
	V     = mls.V
	NullV = mls.NullV
	// Mission returns the paper's Figure 1 relation.
	Mission = mls.Mission
	// MissionByUpdates replays the update history that produces the
	// surprise stories t4/t5.
	MissionByUpdates = mls.MissionByUpdates
	// ParseRelation reads a relation from the text format used by the
	// command-line tools; FormatRelation writes it.
	ParseRelation  = mls.ParseRelation
	FormatRelation = mls.FormatRelation
	// NewJournal starts an audited relation over a scheme.
	NewJournal = mls.NewJournal
	// NewStore starts a concurrent, journal-backed relation.
	NewStore = mls.NewStore
)

// Belief reasoning (internal/belief).
type (
	// BeliefMode names a belief mode (fir / opt / cau or user-defined).
	BeliefMode = belief.Mode
	// ModeRegistry maps mode names to belief functions (§7).
	ModeRegistry = belief.Registry
)

// The paper's three modes (Definition 3.1).
const (
	Firm       = belief.Firm
	Optimistic = belief.Optimistic
	Cautious   = belief.Cautious
)

var (
	// Beta is the parametric belief function β (Definition 3.1).
	Beta = belief.Beta
	// BetaModels is Beta returning every model of an ambiguous cautious
	// merge.
	BetaModels = belief.BetaModels
	// FirmView, OptimisticView and CautiousView are the §3.1 intuitive
	// views (Figures 6-8), computed over the σ-filtered view and thus
	// including the surprise stories β suppresses.
	FirmView       = belief.FirmView
	OptimisticView = belief.OptimisticView
	CautiousView   = belief.CautiousView
	CautiousModels = belief.CautiousModels
	// NewModeRegistry returns a registry with the built-in and Cuppens
	// modes.
	NewModeRegistry = belief.NewRegistry
	// WithoutDoubt intersects all three modes — the §3.2 "without any
	// doubt" query as a library call.
	WithoutDoubt = belief.WithoutDoubt
)

// The Jukic-Vrbsky baseline (internal/jv).
type (
	// JVRelation is a relation under the Jukic-Vrbsky belief labels [16].
	JVRelation = jv.Relation
	// JVStatus is a fixed interpretation (true / invisible / irrelevant /
	// cover story / mirage).
	JVStatus = jv.Status
)

var (
	// MissionJV returns Figure 4.
	MissionJV = jv.MissionJV
)

// MultiLog (internal/multilog).
type (
	// Database is a MultiLog database Δ = ⟨Λ, Σ, Π, Q⟩.
	Database = multilog.Database
	// Prover is the goal-directed operational interpreter (Figure 9).
	Prover = multilog.Prover
	// Reduction is a database reduced to the classical engine (§6).
	Reduction = multilog.Reduction
	// ProofNode is a node of a MultiLog proof tree (§5.4).
	ProofNode = multilog.ProofNode
	// MultiLogOptions tunes the reduction (Figure 13 FILTER rules).
	MultiLogOptions = multilog.Options
)

var (
	// ParseMultiLog parses MultiLog source into a database.
	ParseMultiLog = multilog.Parse
	// ParseGoals parses a conjunctive query body.
	ParseGoals = multilog.ParseGoals
	// NewProver builds the operational prover at a user level.
	NewProver = multilog.NewProver
	// ReduceMultiLog translates a database for a user level (τ plus the
	// Figure 12 axioms).
	ReduceMultiLog = multilog.Reduce
	// ReduceMultiLogOpts is ReduceMultiLog with options.
	ReduceMultiLogOpts = multilog.ReduceOpts
	// D1 returns the paper's Figure 10 database; D1Query the Example 5.2
	// query.
	D1      = multilog.D1
	D1Query = multilog.D1Query
	// FromRelation encodes an MLS relation as MultiLog facts
	// (Example 5.1).
	FromRelation = multilog.FromRelation
)

// The classical Datalog substrate (internal/datalog), exposed because
// Proposition 6.1 makes it part of the story: Datalog is the special case
// of MultiLog with empty security components.
type (
	// DatalogProgram is a classical program with stratified negation.
	DatalogProgram = datalog.Program
	// DatalogStore holds ground facts.
	DatalogStore = datalog.Store
)

var (
	// ParseDatalog parses classical Datalog source.
	ParseDatalog = datalog.Parse
	// EvalDatalog computes the minimal model of a stratified program.
	EvalDatalog = datalog.Eval
	// QueryDatalog evaluates and matches a goal.
	QueryDatalog = datalog.Query
)

// Belief-SQL (internal/mlsql).
type (
	// SQLEngine executes §3.2 belief-SQL statements.
	SQLEngine = mlsql.Engine
	// SQLResult is a query result.
	SQLResult = mlsql.Result
)

var (
	// NewSQLEngine returns an engine with the built-in belief modes.
	NewSQLEngine = mlsql.NewEngine
)

// Resource governance (internal/resource). Every engine in the module is
// deadline-safe: the *Context entry points below bound evaluation by a
// context (wall clock) and an EvalLimits (fact / step / memory budgets) and
// come back with a typed error plus partial statistics instead of hanging.
// The facade wrappers additionally contain panics: a bug in an engine
// surfaces as *EvalInternalError, never a process crash.
type (
	// EvalLimits bounds an evaluation; the zero value is unlimited.
	EvalLimits = resource.Limits
	// EvalStats is the partial-progress report of a governed evaluation.
	EvalStats = resource.Stats
	// BudgetError reports an exhausted fact/step/memory budget (errors.As).
	BudgetError = resource.ErrBudgetExceeded
	// EvalInternalError is a contained engine panic (errors.As).
	EvalInternalError = resource.InternalError
	// Subst is a substitution: one answer's variable bindings.
	Subst = term.Subst
	// MultiLogQuery is a parsed conjunctive MultiLog query.
	MultiLogQuery = multilog.Query
)

var (
	// ErrEvalCanceled reports a canceled or expired evaluation (errors.Is).
	ErrEvalCanceled = resource.ErrCanceled
	// IsLimitError reports whether an error is a graceful resource stop
	// (cancellation or budget exhaustion); such errors come with partial
	// results.
	IsLimitError = resource.IsLimit
)

// EvalDatalogContext computes the minimal model of a stratified Datalog
// program under ctx and limits. On a limit stop it returns the partial model
// alongside the error; the stats always report the work done.
func EvalDatalogContext(ctx context.Context, p *DatalogProgram, edb *DatalogStore, limits EvalLimits) (model *DatalogStore, stats EvalStats, err error) {
	defer resource.Protect("repro.EvalDatalogContext", &err)
	model, ds, err := datalog.EvalLimited(ctx, p, edb, limits)
	return model, ds.Resource, err
}

// QueryDatalogContext evaluates the program under ctx and limits and matches
// goal against the (possibly partial) model.
func QueryDatalogContext(ctx context.Context, p *DatalogProgram, edb *DatalogStore, goal datalog.Atom, limits EvalLimits) (answers []Subst, stats EvalStats, err error) {
	defer resource.Protect("repro.QueryDatalogContext", &err)
	answers, ds, err := datalog.QueryLimited(ctx, p, edb, goal, limits)
	return answers, ds.Resource, err
}

// ProveMultiLogContext runs the Figure 9 operational prover at a user level
// under ctx and limits. On a limit stop it returns the answers found so far
// alongside the error.
func ProveMultiLogContext(ctx context.Context, db *Database, user Label, q MultiLogQuery, limits EvalLimits) (answers []multilog.ProofAnswer, stats EvalStats, err error) {
	defer resource.Protect("repro.ProveMultiLogContext", &err)
	pr, err := multilog.NewProver(db, user)
	if err != nil {
		return nil, EvalStats{}, err
	}
	pr.Limits = limits
	answers, err = pr.ProveContext(ctx, q, 0)
	return answers, pr.LastStats, err
}

// QueryMultiLogContext answers a query through the Figure 12 reduction under
// ctx and limits — both the bottom-up model construction and the matching
// phase are governed.
func QueryMultiLogContext(ctx context.Context, db *Database, user Label, q MultiLogQuery, limits EvalLimits) (answers []multilog.Answer, err error) {
	defer resource.Protect("repro.QueryMultiLogContext", &err)
	red, err := multilog.Reduce(db, user)
	if err != nil {
		return nil, err
	}
	return red.QueryContext(ctx, q, limits)
}

// ExecuteSQLContext parses and runs a belief-SQL statement under ctx and
// limits.
func ExecuteSQLContext(ctx context.Context, e *SQLEngine, src string, limits EvalLimits) (res *SQLResult, stats EvalStats, err error) {
	defer resource.Protect("repro.ExecuteSQLContext", &err)
	return e.ExecuteContext(ctx, src, limits)
}

// The serving layer (internal/server): the cmd/multilogd daemon as a
// library. A QueryServer loads programs once (parse, lint, reduce), then
// answers concurrent sessions — each cleared at a label with a default
// belief mode — from shared prepared reductions behind an epoch-keyed,
// invalidating result cache, governed per request.
type (
	// QueryServer is an embeddable multilogd: Load programs, then serve
	// Handler (or Serve for the drain-on-signal lifecycle).
	QueryServer = server.Server
	// QueryServerConfig tunes session caps, cache size, deadlines and
	// per-request budgets; the zero value serves with sane defaults.
	QueryServerConfig = server.Config
	// ServerClient speaks the multilogd JSON/HTTP protocol.
	ServerClient = server.Client
	// ServerRemoteError is a non-2xx protocol reply with a stable machine
	// code (errors.As).
	ServerRemoteError = server.RemoteError
)

var (
	// NewQueryServer builds an empty query server.
	NewQueryServer = server.New
	// NewServerClient returns a client for a multilogd base URL.
	NewServerClient = server.NewClient
)
