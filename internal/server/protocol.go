package server

import (
	"repro/internal/compile"
	"repro/internal/resource"
)

// The wire protocol is plain JSON over HTTP/1.1, versioned under /v1/.
// Endpoints:
//
//	POST /v1/session        OpenRequest  -> OpenResponse     open a session
//	POST /v1/session/close  CloseRequest -> CloseResponse    close a session
//	POST /v1/query          QueryRequest -> QueryResponse    answer a query
//	POST /v1/assert         UpdateRequest -> UpdateResponse  add clauses
//	POST /v1/retract        UpdateRequest -> UpdateResponse  remove clauses
//	GET  /v1/stats          -> StatsResponse                 counters
//	GET  /v1/healthz        -> 200 "ok"                      liveness
//
// Every error comes back as an ErrorResponse with a stable machine code
// and the HTTP status mirroring it (400 bad-request/parse/lint/denied,
// 404 unknown-session/unknown-db, 408 limit on deadline, 503 overloaded,
// 500 internal).

// Error codes. These are API: clients branch on Code, never on Message.
const (
	CodeBadRequest     = "bad-request"     // malformed JSON or missing field
	CodeParse          = "parse"           // query/clause source did not parse
	CodeLint           = "lint"            // program rejected by the linter
	CodeDenied         = "denied"          // clearance does not permit the action
	CodeUnknownDB      = "unknown-db"      // no database with that name
	CodeUnknownSession = "unknown-session" // session token not found (or expired)
	CodeOverloaded     = "overloaded"      // session cap reached
	CodeLimit          = "limit"           // deadline or resource budget hit
	CodeInternal       = "internal"        // contained engine panic / bug
	CodeRecovering     = "recovering"      // replaying the log; writes refused
	CodeNotPrimary     = "not-primary"     // write sent to a read replica
	CodeCompacted      = "compacted"       // requested log tail pruned; re-bootstrap
)

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Primary, set with code "not-primary", is the address of the node that
	// does accept writes — follow-the-leader without a second round trip.
	Primary string `json:"primary,omitempty"`
}

// OpenRequest authenticates a subject and fixes the session view: every
// query on the session is answered at Clearance under Mode.
type OpenRequest struct {
	// Subject names the principal (audit only; there is no password — the
	// daemon trusts its front-end, as the paper's interpreter trusts login).
	Subject string `json:"subject"`
	// Clearance is the subject's security level; it must be asserted by the
	// database's Λ.
	Clearance string `json:"clearance"`
	// Mode is the session's default belief mode, applied to query m-atoms
	// that carry no explicit "<< mode". Empty defaults to "fir", which is
	// answer-preserving: firm belief at a level is exactly the m-atoms
	// visible at it (axiom a4).
	Mode string `json:"mode,omitempty"`
	// DB names the database to bind to; empty selects the daemon's sole
	// database when exactly one is loaded.
	DB string `json:"db,omitempty"`
}

// OpenResponse returns the session token and the bound view.
type OpenResponse struct {
	Session   string `json:"session"`
	DB        string `json:"db"`
	Clearance string `json:"clearance"`
	Mode      string `json:"mode"`
	Epoch     uint64 `json:"epoch"`
}

// CloseRequest releases a session.
type CloseRequest struct {
	Session string `json:"session"`
}

// CloseResponse acknowledges the release.
type CloseResponse struct {
	Closed bool `json:"closed"`
}

// QueryRequest asks one conjunctive MultiLog query on a session.
type QueryRequest struct {
	Session string `json:"session"`
	// Query is the goal conjunction, as accepted by multilog.ParseGoals
	// ("?-" prefix and trailing "." optional).
	Query string `json:"query"`
	// Mode overrides the session's default belief mode for this query only.
	Mode string `json:"mode,omitempty"`
	// Raw disables the belief rewrite: m-atoms are answered as m-atoms.
	Raw bool `json:"raw,omitempty"`
	// TimeoutMS bounds this query's wall clock; it can only tighten the
	// server's per-request deadline, never extend it. 0 means the server
	// default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxFacts/MaxSteps tighten the server's per-request resource budget.
	MaxFacts int64 `json:"max_facts,omitempty"`
	MaxSteps int64 `json:"max_steps,omitempty"`
}

// QueryResponse carries the answers.
type QueryResponse struct {
	// Answers lists one binding map per answer (variable -> term text),
	// deterministically ordered.
	Answers []map[string]string `json:"answers"`
	// Query echoes the effective query after the belief rewrite — what the
	// cache is keyed on.
	Query string `json:"query"`
	// Cached reports a result-cache hit.
	Cached bool `json:"cached"`
	// Epoch is the program epoch the answer was computed at.
	Epoch uint64 `json:"epoch"`
	// Stats reports the matching work (zero on cache hits and on the
	// ungoverned fast path).
	Stats resource.Stats `json:"stats"`
	// StaleMS, when nonzero, marks a brownout answer: the admission
	// controller was shedding and this response was served from an
	// invalidated cache entry this many milliseconds old (bounded by the
	// server's -max-stale). Mirrored in the X-Multilog-Stale header.
	StaleMS int64 `json:"stale_ms,omitempty"`

	// raw is the answers array as a Client received it, which ReplyQuery
	// forwards in the place of Answers; nil when Answers was built otherwise.
	raw []byte
}

// UpdateRequest asserts or retracts clauses on the session's database.
type UpdateRequest struct {
	Session string `json:"session"`
	// Clauses is MultiLog source: one or more Σ/Π clauses ("s[p(k: a -s->
	// v)]." etc.). Λ clauses are rejected — the lattice is fixed at load.
	Clauses string `json:"clauses"`
}

// UpdateResponse reports the new program epoch.
type UpdateResponse struct {
	Epoch uint64 `json:"epoch"`
	// Changed counts clauses actually added (assert) or removed (retract).
	Changed int `json:"changed"`
	// Invalidated counts result-cache entries dropped by this update.
	Invalidated int `json:"invalidated"`
	// Incremental reports that every warm reduction was advanced by the
	// write's delta; false means at least one was dropped, and its
	// clearance's cached answers with it.
	Incremental bool `json:"incremental,omitempty"`
	// ChangedPreds lists, sorted, the translated relations whose tuples the
	// write changed at any advanced clearance.
	ChangedPreds []string `json:"changed_preds,omitempty"`
	// Seq is the write's WAL sequence number (0 without durability). The
	// router acks a write to its client only after every live replica
	// reports an applied seq >= this.
	Seq uint64 `json:"seq,omitempty"`
}

// StatsResponse is the /v1/stats body.
type StatsResponse struct {
	UptimeMS int64        `json:"uptime_ms"`
	Sessions SessionStats `json:"sessions"`
	Queries  QueryStats   `json:"queries"`
	Cache    CacheStats   `json:"cache"`
	// Compiled is the process-wide compiled-engine plan cache: hit/miss/
	// compile counters and cumulative compile time for the hash-join plans
	// prepared reductions run on.
	Compiled  compile.CacheStats `json:"compiled"`
	Databases map[string]DBStats `json:"databases"`
	// Durability is nil when the daemon runs without a data directory.
	Durability *DurabilityStats `json:"durability,omitempty"`
	// Replication is nil on a plain single-node daemon; a durable primary, a
	// follower and the router all report their replication view here.
	Replication *ReplicationStats `json:"replication,omitempty"`
	// Admission is nil when the admission controller is disabled
	// (-max-inflight 0 / Config.MaxInflight == 0).
	Admission *AdmissionStats `json:"admission,omitempty"`
}

// AdmissionStats is the admission controller's view: the adaptive limit,
// the live load, and the shed/brownout counters.
type AdmissionStats struct {
	// Limit is the current AIMD concurrency limit, in cost units.
	Limit float64 `json:"limit"`
	// Inflight is the admitted cost currently executing.
	Inflight int `json:"inflight"`
	// Queued is the number of requests parked in the admission queues.
	Queued int `json:"queued"`
	// Admitted counts gated requests (reads/writes/prepares) admitted.
	Admitted int64 `json:"admitted"`
	// Bypassed counts health/replication requests waved through the limiter.
	Bypassed int64 `json:"bypassed"`
	// Shed counts requests rejected with 429.
	Shed int64 `json:"shed"`
	// Shedding reports the controller is currently in its CoDel shed state.
	Shedding bool `json:"shedding,omitempty"`
	// StaleServed counts brownout answers served from invalidated cache
	// entries instead of rejecting.
	StaleServed int64 `json:"stale_served,omitempty"`
	// LimitDecreases counts multiplicative AIMD cuts since boot.
	LimitDecreases int64 `json:"limit_decreases,omitempty"`
}

// ReplicationStats is the replication view of one node (or the router),
// reported in /v1/stats and served raw at GET /v1/repl/status (which is
// what the router polls for write acks and promotion).
type ReplicationStats struct {
	// Role is "primary", "follower" or "router".
	Role string `json:"role"`
	// Primary is the advertised primary address (empty on the primary itself).
	Primary string `json:"primary,omitempty"`
	// AppliedSeq is the newest WAL seq applied to the serving state (on the
	// primary: the last seq appended).
	AppliedSeq uint64 `json:"applied_seq"`
	// LastHeardSeq is the newest primary seq this follower has heard of
	// (stream header or heartbeat); lag = LastHeardSeq - AppliedSeq.
	LastHeardSeq uint64 `json:"last_heard_seq,omitempty"`
	// LagRecords is the record lag behind the primary, as last heard.
	LagRecords int64 `json:"lag_records"`
	// Epochs maps each database to its current program epoch: the token the
	// read-your-writes protocol compares across nodes.
	Epochs map[string]uint64 `json:"epochs,omitempty"`
	// Synced is true once a follower has caught up to the primary seq it
	// first heard (primaries are always synced).
	Synced bool `json:"synced"`
	// Diverged is true once a record was mirrored into the local WAL but
	// could not be applied: the node is failed out permanently (Synced
	// stays false) until rebuilt from a fresh bootstrap.
	Diverged bool `json:"diverged,omitempty"`
	// LastStreamError is the most recent replication-stream failure (empty
	// when streaming is healthy).
	LastStreamError string `json:"last_stream_error,omitempty"`

	// QueueDepth is the node's admission-controller load (queued + running
	// gated requests): the gossip signal the router sheds reads to the
	// least-loaded replica with. Zero when admission is disabled.
	QueueDepth int64 `json:"queue_depth,omitempty"`

	// Follower-side stream counters.
	Resumes            int64 `json:"resumes,omitempty"`             // stream reconnects after a failure
	SnapshotBootstraps int64 `json:"snapshot_bootstraps,omitempty"` // full snapshot installs
	// Rebootstraps counts diverged-state wipes followed by a fresh snapshot
	// bootstrap (the opt-in -rebootstrap-on-diverge path).
	Rebootstraps   int64 `json:"rebootstraps,omitempty"`
	FramesReceived int64 `json:"frames_received,omitempty"`
	BytesReceived  int64 `json:"bytes_received,omitempty"`

	// Primary-side serving counters.
	StreamsServed   int64 `json:"streams_served,omitempty"`
	FramesSent      int64 `json:"frames_sent,omitempty"`
	SnapshotsServed int64 `json:"snapshots_served,omitempty"`

	// Router-side counters.
	Failovers    int64 `json:"failovers,omitempty"`      // primaries replaced by promotion
	WritesAcked  int64 `json:"writes_acked,omitempty"`   // writes confirmed on every live replica
	AckTimeouts  int64 `json:"ack_timeouts,omitempty"`   // replicas dropped from the ack set
	RYWHolds     int64 `json:"ryw_holds,omitempty"`      // reads held for the replica to catch up
	RYWForwards  int64 `json:"ryw_forwards,omitempty"`   // reads forwarded to the primary after a hold expired
	ReadFallback int64 `json:"read_fallbacks,omitempty"` // reads moved off a failed replica
	Resheds      int64 `json:"resheds,omitempty"`        // pins moved off a shedding replica (queue-depth gossip)
	// Nodes is the router's per-backend view.
	Nodes []NodeReplStats `json:"nodes,omitempty"`
}

// NodeReplStats is the router's view of one backend.
type NodeReplStats struct {
	Addr       string   `json:"addr"`
	Role       string   `json:"role"` // "primary" or "replica"
	Healthy    bool     `json:"healthy"`
	AppliedSeq uint64   `json:"applied_seq"`
	Sessions   int64    `json:"sessions"`              // sessions pinned to this backend
	QueueDepth int64    `json:"queue_depth,omitempty"` // last gossiped admission load
	Bands      []string `json:"bands,omitempty"`       // clearance bands served (empty = all)
}

// DurabilityStats reports the WAL counters and what the last recovery did.
type DurabilityStats struct {
	LastSeq            uint64 `json:"last_seq"`            // last record sequence number
	Appended           int64  `json:"appended"`            // records appended since boot
	Syncs              int64  `json:"syncs"`               // fsyncs issued
	CheckpointsWritten int64  `json:"checkpoints_written"` // since boot
	LastCheckpointSeq  uint64 `json:"last_checkpoint_seq"`
	Recovering         bool   `json:"recovering"`
	ReplayDone         int64  `json:"replay_done"`
	ReplayTotal        int64  `json:"replay_total"`
	// Recovery reports what boot-time recovery found and dropped.
	Recovery RecoveryStats `json:"recovery"`
}

// RecoveryStats is the durable outcome of the last boot's recovery.
type RecoveryStats struct {
	CheckpointsLoaded  int   `json:"checkpoints_loaded"`
	CheckpointsSkipped int   `json:"checkpoints_skipped"` // failed their checksum
	RecordsReplayed    int64 `json:"records_replayed"`
	RecordsTruncated   int64 `json:"records_truncated"` // torn/corrupt tail dropped
	BytesTruncated     int64 `json:"bytes_truncated"`
	DurationMS         int64 `json:"duration_ms"`
}

// HealthResponse is the /v1/healthz (liveness: always 200) and /v1/readyz
// (readiness: 503 until recovery completes, and while draining) body.
type HealthResponse struct {
	// Status is "ok", "recovering", "syncing", "diverged" or "draining" (a
	// router: "ok", "degraded" without a live primary, or "draining"). A
	// follower reports "syncing" (and 503 on /v1/readyz) until it has
	// caught up to the primary seq it first heard; "diverged" (also 503) is
	// permanent — the node must be rebuilt from a fresh bootstrap.
	Status string `json:"status"`
	// Recovering is true while the boot-time log replay is running; writes
	// are refused (503, code "recovering") until it finishes.
	Recovering bool `json:"recovering,omitempty"`
	// ReplayDone/ReplayTotal report replay progress while recovering.
	ReplayDone  int64 `json:"replay_done,omitempty"`
	ReplayTotal int64 `json:"replay_total,omitempty"`
	// Role is "primary", "follower" or "router"; empty on a plain
	// single-node daemon.
	Role string `json:"role,omitempty"`
	// AppliedSeq is the newest WAL seq applied (followers and primaries).
	AppliedSeq uint64 `json:"applied_seq,omitempty"`
}

// SessionStats counts session-manager traffic.
type SessionStats struct {
	Open   int   `json:"open"`
	Peak   int   `json:"peak"`
	Opened int64 `json:"opened"`
	Denied int64 `json:"denied"` // rejected by the concurrent-session cap
}

// QueryStats counts query traffic.
type QueryStats struct {
	Served    int64 `json:"served"`
	Errors    int64 `json:"errors"`
	Truncated int64 `json:"truncated"` // hit a deadline or budget
	// Abandoned counts replies, on any route, that failed after they began
	// (a client that gave up mid-body); their status stands.
	Abandoned int64 `json:"abandoned,omitempty"`
}

// CacheStats counts result-cache traffic.
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Patched       int64 `json:"patched"`        // entries a write patched instead of dropping
	PatchOverflow int64 `json:"patch_overflow"` // entries dropped for a full patch queue, in Invalidations too
	Entries       int   `json:"entries"`
	Capacity      int   `json:"capacity"`
}

// DBStats describes one loaded database.
type DBStats struct {
	Epoch  uint64 `json:"epoch"`
	Lambda int    `json:"lambda"`
	Sigma  int    `json:"sigma"`
	Pi     int    `json:"pi"`
	// Reductions counts the prepared reductions, one per serving level built:
	// while every clause is monotone (multilog.MonotoneClause) one at a
	// maximal level serves each clearance below it, so a chain holds at most
	// one; otherwise one per warm clearance.
	Reductions int   `json:"reductions"`
	Updates    int64 `json:"updates"`
	AdvanceTally
}

// AdvanceTally counts how committed writes — one, or a database's lifetime of
// them — carried warm reductions into their new epoch. None re-derives a model.
type AdvanceTally struct {
	// Patched from the old model; of which, after first adopting a compiled
	// model (the first write after a cold build).
	AdvanceIncremental int64 `json:"advance_incremental"`
	AdvanceAdopted     int64 `json:"advance_adopted"`
	// Not carried, but left for the next read at that clearance to build, by
	// reason (multilog.Refusal: "delta-failed", ...; "unserved": the write
	// made the program monotone, and a maximal level serves the clearance).
	AdvanceDropped map[string]int64 `json:"advance_dropped,omitempty"`
}

// LintRequest asks for a full static-analysis report on a loaded database.
// Lint is sessionless: it reads the current program snapshot and computes
// nothing clearance-specific.
type LintRequest struct {
	// DB names the database; empty selects the daemon's sole database when
	// exactly one is loaded.
	DB string `json:"db,omitempty"`
}

// LintDiagnostic is one finding, flattened for transport.
type LintDiagnostic struct {
	Code     string `json:"code"`     // stable pass code, e.g. "ML005"
	Severity string `json:"severity"` // "error", "warning" or "info"
	Line     int    `json:"line,omitempty"`
	Col      int    `json:"col,omitempty"`
	Message  string `json:"message"`
	Fix      string `json:"fix,omitempty"`
}

// LintFlowInfo is the information-flow summary for one m-predicate.
type LintFlowInfo struct {
	Pred string `json:"pred"`
	// Sources is the over-approximated set of classification labels the
	// predicate's derivations can depend on.
	Sources []string `json:"sources,omitempty"`
	// AllLabels means a level variable or lattice builtin contaminated the
	// cone: Sources is the whole label set.
	AllLabels bool `json:"all_labels,omitempty"`
	// Bound is the least upper bound of Sources when the lattice has one.
	Bound string `json:"bound,omitempty"`
	// ClearanceIndependent claims fixed-level answers at universally
	// dominated levels are identical for every clearance.
	ClearanceIndependent bool `json:"clearance_independent"`
	// ModeDivergent means the predicate is asserted at two comparable
	// levels, so fir/opt/cau answers can differ.
	ModeDivergent bool `json:"mode_divergent"`
}

// LintResponse is the static-analysis report: every diagnostic the lint
// passes produce on the loaded source, plus the per-predicate flow table.
type LintResponse struct {
	DB    string `json:"db"`
	Epoch uint64 `json:"epoch"`
	// Diagnostics is empty for a clean program (a loaded program never has
	// error-severity findings; Load rejects those).
	Diagnostics []LintDiagnostic `json:"diagnostics"`
	// Flow lists per-predicate information-flow summaries, sorted by
	// predicate name. Omitted if the flow analysis could not run (e.g. the
	// fixpoint budget was exhausted before convergence).
	Flow []LintFlowInfo `json:"flow,omitempty"`
	// Converged reports that the flow fixpoint completed within budget.
	Converged bool `json:"converged"`
}
