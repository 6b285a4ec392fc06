// Package server is multilogd's serving layer: a concurrent MultiLog query
// server over HTTP. It turns the single-caller library into the paper's
// actual access pattern — many subjects, each cleared at a label and a
// belief mode, asking the same MLS database different questions at the
// same time.
//
// The architecture is three caches deep, each invalidated by the next:
//
//   - prepared programs: each database is parsed, linted and
//     admissibility-checked once at load, behind a copy-on-write snapshot
//     (assert/retract clones the database, checks the clauses it writes
//     with the linter's Error passes, and swaps a pointer; readers never
//     block on writers);
//   - compiled reductions: per (snapshot, clearance), the §6 reduction and
//     its materialized minimal model are built once and shared read-only by
//     every session at that clearance (multilog.QueryPrepared), so the hot
//     path is match-only; a write carries them into its snapshot by clause
//     delta (multilog.Advance) instead of rebuilding them;
//   - result cache: complete answers, encoded once to the JSON array the
//     wire carries (a hit writes those bytes as they are), keyed by
//     (database, load generation, clearance, belief mode, effective query),
//     each with the translated relations its query reads and the epoch it
//     was computed at; a write,
//     fact or rule, drops the entries whose relations its advance changed at
//     their clearance (and every entry of a clearance it did not advance), and
//     an answer computed before it cannot be stored after it.
//
// Every request runs under the internal/resource governor: per-request
// wall-clock deadlines plus fact/step budgets, with typed errors, and
// panic containment at the handler boundary. Sessions are capped
// (Config.MaxSessions, a typed 503); with Config.MaxInflight set, queries and
// writes also pass internal/admission's cost-aware fixed limiter, which queues
// by priority, sheds with a typed 429 and, under Config.MaxStale, lets a shed
// read be answered from a recently invalidated cache entry (brownout).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/admission"
	"repro/internal/compile"
	"repro/internal/faultinject"
	"repro/internal/lattice"
	"repro/internal/multilog"
	"repro/internal/resource"
	"repro/internal/term"
	"repro/internal/wal"
)

// Config tunes a Server. The zero value serves with the defaults below.
type Config struct {
	// MaxSessions caps concurrently open sessions; opening beyond the cap
	// fails with a typed *OverloadError (HTTP 503). Default 256; negative
	// means uncapped.
	MaxSessions int
	// CacheEntries bounds the result cache (LRU). Default 4096; negative
	// disables caching.
	CacheEntries int
	// QueryTimeout is the per-request wall-clock ceiling. Requests may ask
	// for less, never more. Default 10s; negative means no deadline.
	QueryTimeout time.Duration
	// Limits is the per-request resource budget ceiling (facts/steps/
	// memory); requests may tighten it. Zero fields are unlimited.
	Limits resource.Limits
	// Logf, when set, receives one line per notable event (loads, updates,
	// drains). nil discards.
	Logf func(format string, args ...any)
	// WAL, when set, is the open write-ahead log: every load and update is
	// appended (and, under wal.SyncAlways, fsynced) before it is acknowledged
	// or visible. A server built with WAL starts in the recovering state;
	// call Recover with the wal.Recovery from wal.Open before serving
	// writes. nil turns durability off. Serve owns the store's lifecycle:
	// it writes a final checkpoint and closes the WAL on drain.
	WAL *wal.Store
	// CheckpointInterval is the cadence of background checkpoints when WAL
	// is set. Default 30s; negative disables timed checkpoints.
	CheckpointInterval time.Duration
	// CheckpointEvery also triggers a checkpoint after that many records
	// accumulate past the last one. Default 1024; negative disables.
	CheckpointEvery int64
	// Role selects primary (default: accepts writes) or follower (read
	// replica: Serve streams the primary's log into it, and writes fail
	// with *NotPrimaryError until POST /v1/repl/promote). A follower
	// requires WAL — its mirrored log is its durability and its claim to
	// promotion.
	Role Role
	// PrimaryAddr is the primary a follower streams from, hands to
	// rejected writers and reports on /v1/repl/status.
	PrimaryAddr string
	// RebootstrapOnDiverge turns a follower's divergence from a terminal
	// halt into a wipe-and-rebuild: instead of leaving the fleet forever,
	// the follower discards its serving state by installing a fresh primary
	// snapshot (which repositions its log past the unappliable record) and
	// rejoins. Opt-in because it destroys the local evidence of what
	// diverged.
	RebootstrapOnDiverge bool
	// StreamFaults, when set, is consulted once per outgoing replication
	// stream frame (faultinject.ReplStreamFrame), once per replicated record
	// applied (faultinject.ReplApplyRecord), and once per admitted query
	// (faultinject.ServerQueryWork); the chaos harnesses use it to corrupt,
	// short-write, kill mid-stream, force a divergence, or inject latency
	// spikes. nil disables.
	StreamFaults faultinject.FilePlan
	// MaxInflight, when positive, enables the admission controller: a
	// fixed concurrency limit, in cost units, over the gated work classes
	// (reads ≪ writes ≪ prepares; cache hits never ask, and health and
	// replication always bypass). Beyond the limit requests queue FIFO per
	// priority and are shed when the queue is full or their deadline cannot
	// be met; rejected requests get a typed 429 with a computed
	// Retry-After. 0 disables admission.
	MaxInflight int
	// MaxStale bounds brownout serving: while the admission controller is
	// shedding, reads may be answered from invalidated result-cache entries
	// at most this old instead of rejected, marked by QueryResponse.StaleMS
	// and the X-Multilog-Stale header. 0 disables brownout. Requires
	// MaxInflight > 0 to ever trigger.
	MaxStale time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 256
	}
	if c.MaxSessions < 0 {
		c.MaxSessions = 0 // sessionManager: 0 = uncapped
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0 // resultCache: 0 = disabled
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 10 * time.Second
	}
	if c.QueryTimeout < 0 {
		c.QueryTimeout = 0 // no deadline
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 30 * time.Second
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 1024
	}
	return c
}

// Server is a multilogd instance: loaded programs, live sessions, the
// result cache and the HTTP handler. Create with New, add databases with
// Load, then serve Handler (or Serve for the full lifecycle).
type Server struct {
	cfg      Config
	sessions *sessionManager
	cache    *resultCache
	start    time.Time

	progMu   sync.RWMutex
	programs map[string]*preparedProgram

	tr      *Transport
	queries atomic.Int64
	qErrors atomic.Int64
	qTrunc  atomic.Int64

	// Durability. walMu pairs every mutation's WAL append with its install
	// (apply: an update on the read side, a load on the write side) against
	// the checkpointer's capture-and-rotate (write side), so a checkpoint's
	// state and its log position always agree, and a load is logged and
	// installed between updates, never inside one.
	wal         *wal.Store
	walMu       sync.RWMutex
	recovering  atomic.Bool
	replayDone  atomic.Int64
	replayTotal atomic.Int64
	recMu       sync.Mutex
	recStats    RecoveryStats
	ckptKick    chan struct{}

	// Replication. role flips exactly once (promote); applied tracks the
	// newest seq a follower has applied; synced gates readiness until the
	// follower first catches up to the primary.
	role      atomic.Int32
	synced    atomic.Bool
	diverged  atomic.Bool // cleared only by the rebootstrap-on-diverge path
	applied   atomic.Uint64
	repl      replCounters
	streamEvN atomic.Int64
	applyEvN  atomic.Int64

	// The follower loop (follower.go). upMu guards the one upstream
	// address, the cut of the stream in flight (so a retarget kicks it),
	// and the loop's stop and done, which Serve sets when it starts it.
	upMu        sync.Mutex
	primaryAddr string
	cutStream   context.CancelFunc
	stopFollow  context.CancelFunc
	followDone  chan struct{}

	// Overload protection. adm is nil when admission is disabled
	// (Config.MaxInflight == 0); staleServed counts brownout answers.
	adm         *admission.Controller
	staleServed atomic.Int64
	queryEvN    atomic.Int64
}

// New builds an empty server with cfg (zero value = defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		sessions: newSessionManager(cfg.MaxSessions),
		cache:    newResultCache(cfg.CacheEntries),
		start:    time.Now(),
		programs: map[string]*preparedProgram{},
		wal:      cfg.WAL,
		ckptKick: make(chan struct{}, 1),
	}
	s.tr = NewTransport(s.logf)
	// A durable server boots not-ready: writes 503 until Recover runs.
	s.recovering.Store(cfg.WAL != nil)
	s.role.Store(int32(cfg.Role))
	s.primaryAddr = cfg.PrimaryAddr
	// A follower is not ready until it has caught up to the primary once.
	s.synced.Store(cfg.Role != RoleFollower)
	if cfg.MaxInflight > 0 {
		s.adm = admission.New(admission.Config{MaxInflight: cfg.MaxInflight})
	}
	s.cache.keepStale = cfg.MaxStale > 0
	return s
}

// Admission cost estimates, in controller cost units: a cached read never
// reaches admission at all, a compiled prepared query is match-only, a
// write clones/lints/swaps, and a first query at a clearance pays a full
// reduction build.
const (
	costRead    = 4
	costWrite   = 8
	costPrepare = 16
)

// admit asks the admission controller for a slot (nil controller admits
// everything). A context deadline hit while queued is reported as the
// governor's cancellation so it maps to 408, not 400.
func (s *Server) admit(ctx context.Context, pri admission.Priority, cost int) (*admission.Ticket, error) {
	t, err := s.adm.Admit(ctx, pri, cost)
	if err != nil && ctx.Err() != nil {
		var oe *admission.OverloadError
		if !errors.As(err, &oe) {
			return nil, fmt.Errorf("%w (while queued for admission)", resource.ErrCanceled)
		}
	}
	return t, err
}

// Load parses, lints and installs a MultiLog program under name. Programs
// with lint errors are rejected with a *LintError — a server never serves
// a program the static-analysis layer rejects. Loading an existing name
// replaces it (fresh epoch 1) and invalidates its cache entries. With a
// WAL, the load is logged before it is installed.
func (s *Server) Load(name, src string) error {
	if s.currentRole() == RoleFollower {
		return &NotPrimaryError{Primary: s.primary()}
	}
	if name == "" {
		return fmt.Errorf("server: database name must be nonempty")
	}
	rec := record{typ: wal.TypeLoad, DB: name, Src: src}
	_, _, _, err := s.apply(context.Background(), rec, s.logCommit(rec, nil))
	return err
}

// install registers prog under name and detaches the program it replaces
// from the cache: no write to that one, an in-flight one included, reaches
// the cache after, so no older program's delta patches a newer one's entry.
func (s *Server) install(name string, prog *preparedProgram) {
	prog.cache = s.cache
	s.progMu.Lock()
	old := s.programs[name]
	s.programs[name] = prog
	s.progMu.Unlock()
	if old != nil {
		old.upMu.Lock()
		old.cache = nil
		old.upMu.Unlock()
	}
}

// program resolves a database name; the empty name selects the sole loaded
// database when there is exactly one.
func (s *Server) program(name string) (*preparedProgram, error) {
	s.progMu.RLock()
	defer s.progMu.RUnlock()
	if name == "" {
		if len(s.programs) == 1 {
			for _, p := range s.programs {
				return p, nil
			}
		}
		return nil, fmt.Errorf("%w: no database named (loaded: %d)", ErrUnknownDB, len(s.programs))
	}
	if p := s.programs[name]; p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownDB, name)
}

// Databases lists the loaded database names, sorted.
func (s *Server) Databases() []string {
	s.progMu.RLock()
	defer s.progMu.RUnlock()
	names := make([]string, 0, len(s.programs))
	for n := range s.programs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Open admits a session after validating the database and the clearance
// against its lattice.
func (s *Server) Open(req OpenRequest) (*Session, uint64, error) {
	prog, err := s.program(req.DB)
	if err != nil {
		return nil, 0, err
	}
	snap := prog.current()
	clearance := lattice.Label(req.Clearance)
	if !snap.poset.Has(clearance) {
		return nil, 0, fmt.Errorf("server: clearance %q is not asserted by %s's Λ", req.Clearance, prog.name)
	}
	mode := multilog.Mode(req.Mode)
	if mode == "" {
		mode = multilog.ModeFir
	}
	sess, err := s.sessions.Open(req.Subject, prog.name, clearance, mode)
	if err != nil {
		return nil, 0, err
	}
	return sess, snap.epoch, nil
}

// Query answers one request on a session. The belief rewrite, the cache
// probe, the reduction lookup, the governed match and the answers' one
// rendering all happen here; handlers only do transport. The answers come
// back encoded, as the JSON array resp.Answers would marshal to (resp.Answers
// itself is nil); on a cache hit they are the cached bytes, which nobody may
// modify. With a resource-limit error, resp and answers carry the partial
// result.
func (s *Server) Query(ctx context.Context, sess *Session, req QueryRequest) (resp *QueryResponse, answers []byte, err error) {
	// The generation read must precede the program lookup: if a concurrent
	// Load lands in between, the stale generation makes this query's cache
	// key unreachable (a harmless orphan) rather than ever pairing a fresh
	// generation with a pre-load snapshot.
	gen := s.cache.Generation(sess.DB)
	prog, err := s.program(sess.DB)
	if err != nil {
		return nil, nil, err
	}
	snap := prog.current()

	goals, err := multilog.ParseGoals(trimQuery(req.Query))
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	mode := sess.Mode
	if req.Mode != "" {
		mode = multilog.Mode(req.Mode)
	}
	modeKey := string(mode)
	if req.Raw {
		modeKey = "raw"
	} else {
		goals = rewriteBelief(goals, mode)
	}
	canonical := multilog.Query(goals).String()

	// Entries are keyed by load generation, not epoch, so they survive the
	// epochs their deps are untouched by.
	key := cacheKey(sess.DB, gen, string(sess.Clearance), modeKey, canonical)
	if answers, ok := s.cache.Get(key); ok {
		s.queries.Add(1)
		return &QueryResponse{Query: canonical, Cached: true, Epoch: snap.epoch}, answers, nil
	}

	ctx, cancel := s.deadline(ctx, req.TimeoutMS)
	defer cancel()

	// Cost-aware admission: a cache hit never got here; a clearance whose
	// reduction is already compiled is a cheap match-only read, a first
	// query at a clearance pays the full reduction build. Under shed, a
	// recently invalidated answer may be served stale (brownout) instead
	// of rejecting outright.
	pri, cost := admission.Read, costRead
	if !snap.warm(sess.Clearance) {
		pri, cost = admission.Prepare, costPrepare
	}
	ticket, aerr := s.admit(ctx, pri, cost)
	if aerr != nil {
		var shed *admission.OverloadError
		if errors.As(aerr, &shed) {
			if resp, answers := s.staleResponse(key, canonical); resp != nil {
				s.queries.Add(1)
				return resp, answers, nil
			}
		}
		s.qErrors.Add(1)
		return nil, nil, aerr
	}
	start := time.Now()
	defer func() { ticket.Done(time.Since(start), false) }()
	if s.cfg.StreamFaults != nil &&
		s.cfg.StreamFaults(faultinject.ServerQueryWork, s.queryEvN.Add(1)) == faultinject.FileSlow {
		time.Sleep(faultinject.FileSlowDuration)
	}

	red, err := snap.reductionAt(ctx, sess.Clearance, s.prepLimits())
	if err != nil {
		s.qErrors.Add(1)
		return nil, nil, err
	}
	found, stats, err := red.QueryPrepared(ctx, goals, s.requestLimits(req))
	resp = &QueryResponse{Query: canonical, Epoch: snap.epoch, Stats: stats}
	if err != nil {
		if resource.IsLimit(err) {
			// Graceful truncation: report the partial answers with the
			// typed limit error; never cache them.
			s.queries.Add(1)
			s.qTrunc.Add(1)
			answers, _ = encodeAnswers(found, nil)
			return resp, answers, err
		}
		s.qErrors.Add(1)
		return nil, nil, err
	}
	// A single-goal query's entry keeps its plan and row index: a write
	// patches it with the answers its delta adds and deletes.
	answers, rows := encodeAnswers(found, red.PatchPlan(goals))
	s.cache.Put(key, sess.DB, sess.Clearance, snap.epoch, red.QueryDeps(goals), answers, rows)
	s.queries.Add(1)
	return resp, answers, nil
}

// Update applies an assert/retract on the session's database, which patches
// or drops what it changed in the result cache. With a WAL, the update's log
// record is appended (and fsynced, under always) inside the update's critical
// section, after lint and before the snapshot swap: an update a client saw
// acknowledged, or a query could have observed, is durable.
func (s *Server) Update(ctx context.Context, sess *Session, req UpdateRequest, retract bool) (*UpdateResponse, error) {
	if s.currentRole() == RoleFollower {
		return nil, &NotPrimaryError{Primary: s.primary()}
	}
	ticket, aerr := s.admit(ctx, admission.Write, costWrite)
	if aerr != nil {
		return nil, aerr
	}
	start := time.Now()
	defer func() { ticket.Done(time.Since(start), false) }()
	rec := record{typ: wal.TypeUpdate, DB: sess.DB, Clauses: req.Clauses, Clearance: string(sess.Clearance), Retract: retract}
	var seq uint64
	epoch, changed, inv, err := s.apply(ctx, rec, s.logCommit(rec, &seq))
	if err != nil {
		return nil, err
	}
	s.kickCheckpoint()
	resp := &UpdateResponse{Epoch: epoch, Changed: changed, Seq: seq}
	if changed > 0 {
		resp.Invalidated = inv.dropped
		resp.ChangedPreds = inv.changedPreds()
		resp.Incremental = len(inv.AdvanceDropped) == 0
		verb := "assert"
		if retract {
			verb = "retract"
		}
		s.logf("%s %s by %s@%s: %d clause(s), epoch %d, %d cache entries invalidated, %d patched (%d relation(s) changed; reductions advanced: %s)",
			verb, sess.DB, sess.Subject, sess.Clearance, changed, epoch, resp.Invalidated, inv.patched, len(resp.ChangedPreds), inv.AdvanceTally)
	}
	return resp, nil
}

// Stats snapshots every counter for /v1/stats.
func (s *Server) Stats() StatsResponse {
	s.progMu.RLock()
	dbs := make(map[string]DBStats, len(s.programs))
	for name, p := range s.programs {
		dbs[name] = p.stats()
	}
	s.progMu.RUnlock()
	return StatsResponse{
		UptimeMS:    time.Since(s.start).Milliseconds(),
		Sessions:    s.sessions.Stats(),
		Queries:     QueryStats{Served: s.queries.Load(), Errors: s.qErrors.Load(), Truncated: s.qTrunc.Load(), Abandoned: s.tr.Abandoned()},
		Cache:       s.cache.Stats(),
		Compiled:    compile.DefaultCache.Stats(),
		Databases:   dbs,
		Durability:  s.durabilityStats(),
		Replication: s.replicationStats(),
		Admission:   s.admissionStats(),
	}
}

// staleResponse answers a shed read from the brownout side table when a
// recently invalidated copy of exactly this query's answers exists and is
// no older than Config.MaxStale. The response carries the last epoch those
// answers were valid at, not the snapshot's: a reader that needs a later one
// (the router's read-your-writes floor) must not take them for it. nil means
// no brownout answer: the caller propagates the overload rejection.
func (s *Server) staleResponse(key, canonical string) (*QueryResponse, []byte) {
	if s.cfg.MaxStale <= 0 {
		return nil, nil
	}
	answers, epoch, age, ok := s.cache.GetStale(key, s.cfg.MaxStale)
	if !ok {
		return nil, nil
	}
	s.staleServed.Add(1)
	staleMS := age.Milliseconds()
	if staleMS < 1 {
		staleMS = 1 // omitempty would erase 0 and the answer would read as fresh
	}
	return &QueryResponse{Query: canonical, Cached: true, Epoch: epoch, StaleMS: staleMS}, answers
}

// admissionStats maps the controller snapshot for /v1/stats; nil when
// admission is disabled.
func (s *Server) admissionStats() *AdmissionStats {
	if s.adm == nil {
		return nil
	}
	st := s.adm.Snapshot()
	return &AdmissionStats{
		Limit:       st.Limit,
		Inflight:    st.Inflight,
		Queued:      st.Queued,
		Admitted:    st.Admitted,
		Bypassed:    st.Bypassed,
		Shed:        st.Shed,
		StaleServed: s.staleServed.Load(),
	}
}

// Serve serves on ln until ctx is canceled, then drains: no new sessions
// are admitted, in-flight requests finish (bounded by drainTimeout), and the
// listener closes; nil on a clean drain. It serves through the one
// transport lifecycle; a node hooks its own work into the drain: the
// follower loop stops before the handlers are waited out (no replicated
// record lands once the drain begins), and then the checkpoint loop ends,
// the final checkpoint is cut and the WAL closes.
func (s *Server) Serve(ctx context.Context, ln net.Listener, drainTimeout time.Duration) error {
	if s.currentRole() == RoleFollower {
		// Before the listener serves: a promote must find the loop to stop.
		s.startFollowing(ctx)
	}
	ckptDone := make(chan struct{})
	if s.wal != nil {
		go func() {
			defer close(ckptDone)
			s.checkpointLoop(ctx)
		}()
	} else {
		close(ckptDone)
	}
	return s.tr.Serve(ctx, ln, s.Handler(), drainTimeout, Lifecycle{
		Stop: func() {
			s.stopFollowing()
			s.sessions.Drain()
		},
		Close: func() {
			<-ckptDone
			if s.wal == nil {
				return
			}
			// Final checkpoint so the next boot replays nothing, then
			// release the store.
			if err := s.Checkpoint(); err != nil {
				s.logf("final checkpoint: %v", err)
			}
			if err := s.wal.Close(); err != nil {
				s.logf("closing wal: %v", err)
			}
		},
	})
}

// deadline derives the per-request context: the server ceiling, tightened
// by the client's timeout_ms when that is stricter.
func (s *Server) deadline(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.QueryTimeout
	if req := time.Duration(timeoutMS) * time.Millisecond; req > 0 && (d == 0 || req < d) {
		d = req
	}
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}

// requestLimits tightens the server budget by the request's asks.
func (s *Server) requestLimits(req QueryRequest) resource.Limits {
	l := s.cfg.Limits
	if req.MaxFacts > 0 && (l.MaxFacts == 0 || req.MaxFacts < l.MaxFacts) {
		l.MaxFacts = req.MaxFacts
	}
	if req.MaxSteps > 0 && (l.MaxSteps == 0 || req.MaxSteps < l.MaxSteps) {
		l.MaxSteps = req.MaxSteps
	}
	return l
}

// prepLimits bounds reduction compilation: the server budget under the
// prepare timeout's context (applied by reductionAt's caller-side ctx).
func (s *Server) prepLimits() resource.Limits { return s.cfg.Limits }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// rewriteBelief answers "every query is answered at the session's view":
// bare m-atoms become belief atoms at the session (or request) mode. The
// default mode fir preserves m-semantics exactly — firm belief at a level
// is the m-atoms visible at it (axiom a4) — so sessions that never chose a
// mode see classical answers. Goals that already carry "<< mode" and
// classical goals pass through unchanged.
func rewriteBelief(goals []multilog.Goal, mode multilog.Mode) []multilog.Goal {
	out := make([]multilog.Goal, len(goals))
	for i, g := range goals {
		if g.Kind == multilog.GoalM {
			g = multilog.BGoal(g.M, mode)
		}
		out[i] = g
	}
	return out
}

// encodeAnswers encodes answers, in the engine's order, as the JSON array
// QueryResponse.Answers carries: byte for byte what encoding/json makes of
// one var->text map per answer — keys sorted, never null — without building
// the maps. A row's variable names are sorted once for every run of rows
// binding the same set; every answer of one query binds the query's
// variables. Given a plan, it also returns the row index a patchable cache
// entry keeps, recorded as it writes: the answers' keys, and where each key
// and row ends.
func encodeAnswers(answers []multilog.Answer, plan *multilog.PatchPlan) ([]byte, answerRows) {
	dst, rows := []byte{'['}, answerRows{plan: plan}
	var vars []string
	for i, a := range answers {
		if i > 0 {
			dst = append(dst, ',')
		}
		row, ok := len(dst), len(vars) == len(a.Bindings)
		if ok {
			dst, ok = appendRow(dst, vars, a.Bindings)
		}
		if !ok {
			// Another variable set: sort its names and write the row again.
			vars = vars[:0]
			for v := range a.Bindings {
				vars = append(vars, v)
			}
			sort.Strings(vars)
			dst, _ = appendRow(dst[:row], vars, a.Bindings)
		}
		if i == 0 {
			// The rows of a query are about the same size, and so are its keys.
			dst = slices.Grow(dst, (len(dst)-row+1)*(len(answers)-1)+1)
			if plan != nil {
				rows.keys, rows.ends = make([]byte, 0, (len(a.Key)+1)*len(answers)), make([]int32, 0, 2*len(answers))
			}
		}
		if plan != nil {
			rows.keys = append(rows.keys, a.Key...)
			rows.ends = append(rows.ends, int32(len(rows.keys)), int32(len(dst)))
		}
	}
	return append(dst, ']'), rows
}

// appendRow appends the answer b as a JSON object over vars, which are
// sorted. It reports false, having written part of the row, when b does not
// bind one of vars.
func appendRow(dst []byte, vars []string, b term.Subst) ([]byte, bool) {
	dst = append(dst, '{')
	for j, v := range vars {
		t, ok := b[v]
		if !ok {
			return dst, false
		}
		if j > 0 {
			dst = append(dst, ',')
		}
		open := len(dst)
		dst = quoteJSON(append(append(dst, '"'), v...), open)
		dst = append(dst, ':')
		open = len(dst)
		dst = quoteJSON(t.Append(append(dst, '"')), open)
	}
	return append(dst, '}'), true
}

// quoteJSON closes the JSON string opened by the quote at dst[open], whose
// text runs to the end of dst, as encoding/json writes it. Printable ASCII
// other than `"`, `\` and the HTML-escaped `<`, `>`, `&` is written as it
// stands; a text with anything else is handed to json.Marshal.
func quoteJSON(dst []byte, open int) []byte {
	for _, c := range dst[open+1:] {
		if c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(string(dst[open+1:])) // a string always marshals
			return append(dst[:open], quoted...)
		}
	}
	return append(dst, '"')
}

// trimQuery strips the optional "?-" prefix and trailing ".".
func trimQuery(q string) string {
	q = strings.TrimSpace(q)
	q = strings.TrimSpace(strings.TrimPrefix(q, "?-"))
	return strings.TrimSpace(strings.TrimSuffix(q, "."))
}
