package server

// Replication: the primary/follower faces of one Server. The server owns
// both halves; internal/replica holds only the router in front of a fleet.
//
// A primary is just a durable server that also serves its WAL over HTTP:
//
//	GET /v1/repl/snapshot        newest checkpoint frame (X-Repl-Seq header)
//	GET /v1/repl/stream?from=S   chunked WAL frames with Seq > S, then
//	                             heartbeats while idle; 410 when S has been
//	                             compacted into a checkpoint
//	GET /v1/repl/status          ReplicationStats (applied seq, lag, role)
//
// A follower runs with Config.Role = RoleFollower: it refuses writes with a
// typed *NotPrimaryError (HTTP 421, code "not-primary", carrying the
// primary's address), and Serve runs its follower loop (follower.go), which
// bootstraps from the primary's snapshot and feeds the stream's records to
// applyReplicated. That applies each record through apply, the one function
// a client's write and boot-time replay go through, under a commit that
// mirrors it into the follower's own WAL at the primary's sequence number —
// so a follower's serving state, epochs included, is byte-for-byte the
// primary's, and a promoted follower serves /v1/repl/stream from its own log
// with no translation. The router drives
// the two control routes:
//
//	POST /v1/repl/promote        stop the stream, become the primary
//	POST /v1/repl/primary        {"primary": addr} — follow a new primary
//
// Streaming is fault-injectable: Config.StreamFaults is consulted once per
// outgoing frame (faultinject.ReplStreamFrame), which is how the
// cluster-chaos harness corrupts frames mid-flight, short-writes them, or
// SIGKILLs the primary mid-stream.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/admission"
	"repro/internal/faultinject"
	"repro/internal/wal"
)

// Role says whether a server accepts writes (primary) or mirrors a
// primary's log (follower).
type Role int

const (
	// RolePrimary accepts writes; the default.
	RolePrimary Role = iota
	// RoleFollower serves read-only queries and refuses writes with a typed
	// *NotPrimaryError until a promote flips it.
	RoleFollower
)

// String renders the role in flag/JSON syntax.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleFollower:
		return "follower"
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// NotPrimaryError rejects a write sent to a read replica. Primary carries
// the current primary's address so clients can follow the leader. Match
// with errors.As; maps to HTTP 421 "not-primary".
type NotPrimaryError struct {
	Primary string
}

func (e *NotPrimaryError) Error() string {
	if e.Primary == "" {
		return "server: not the primary: this node is a read replica"
	}
	return fmt.Sprintf("server: not the primary: writes go to %s", e.Primary)
}

// replCounters are the stream counters of both sides of replication, read
// by /v1/stats.
type replCounters struct {
	LastHeardSeq       atomic.Uint64 // newest primary seq heard (header/heartbeat)
	FramesReceived     atomic.Int64
	BytesReceived      atomic.Int64
	Resumes            atomic.Int64
	SnapshotBootstraps atomic.Int64
	Rebootstraps       atomic.Int64 // diverged-state wipes + fresh bootstraps

	StreamsServed   atomic.Int64
	FramesSent      atomic.Int64
	SnapshotsServed atomic.Int64

	errMu         sync.Mutex
	lastStreamErr string
}

// setStreamError records the most recent stream failure for /v1/stats.
func (c *replCounters) setStreamError(msg string) {
	c.errMu.Lock()
	c.lastStreamErr = msg
	c.errMu.Unlock()
}

// streamError returns the most recent stream failure ("" when healthy).
func (c *replCounters) streamError() string {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.lastStreamErr
}

// heardUpTo raises LastHeardSeq to seq (monotonic).
func (c *replCounters) heardUpTo(seq uint64) {
	for {
		cur := c.LastHeardSeq.Load()
		if seq <= cur || c.LastHeardSeq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// currentRole reports the server's role; a promote can change it at runtime.
func (s *Server) currentRole() Role { return Role(s.role.Load()) }

// primary is the one upstream address: what a follower streams from, and
// what *NotPrimaryError and /v1/repl/status carry.
func (s *Server) primary() string {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	return s.primaryAddr
}

// setPrimary re-targets the upstream (after a failover) and cuts the
// stream in flight, so the next connect goes to the new primary.
func (s *Server) setPrimary(addr string) {
	s.upMu.Lock()
	s.primaryAddr = addr
	cut := s.cutStream
	s.upMu.Unlock()
	if cut != nil {
		cut()
	}
}

// appliedSeq is the newest WAL seq applied to the serving state.
func (s *Server) appliedSeq() uint64 {
	if s.currentRole() == RolePrimary && s.wal != nil {
		return s.wal.LastSeq()
	}
	return s.applied.Load()
}

// markSynced declares the follower caught up: /v1/readyz flips to 200.
// A no-op once the node has diverged — a diverged follower must never
// re-enter rotation.
func (s *Server) markSynced() {
	if !s.diverged.Load() {
		s.synced.Store(true)
	}
}

// errDiverged marks a follower whose local WAL holds a record its serving
// state could not apply: the log position and the state no longer agree,
// and resuming the stream from the local seq would silently skip the
// record forever. The follower loop halts on it (or, under
// Config.RebootstrapOnDiverge, rebuilds from a snapshot).
var errDiverged = errors.New("server: follower state diverged from the primary")

// divergedErr permanently fails the node out of the fleet and wraps err in
// errDiverged: the record is durably mirrored in the local WAL but absent
// from the serving state, the one gap the resume protocol cannot close.
// synced goes (and stays) false, so /v1/readyz reports 503 "diverged" and
// the router's probes drop the node from read rotation and ack quorums;
// only a rebuild — a wiped data directory, or a rebootstrap — brings it
// back.
func (s *Server) divergedErr(err error) error {
	if s.diverged.CompareAndSwap(false, true) {
		s.synced.Store(false)
		s.repl.setStreamError(err.Error())
		s.logf("follower DIVERGED; leaving rotation until rebuilt: %s", err)
	}
	return fmt.Errorf("%w: %v", errDiverged, err)
}

// promoteResponse answers POST /v1/repl/promote.
type promoteResponse struct {
	Role    string `json:"role"`
	LastSeq uint64 `json:"last_seq"`
}

// handlePromote flips a follower into the primary role (the router's
// failover). It stops the stream first — a frame applied after the flip
// would race writes the new primary is already acking — then lifts the
// write gate, and the node's own mirrored WAL, which holds the primary's
// records at the primary's seqs, becomes the log it serves to the remaining
// followers. Idempotent; answers the last local seq (what the new reign
// starts from).
func (s *Server) handlePromote(w http.ResponseWriter, _ *http.Request) error {
	s.stopFollowing()
	if s.role.CompareAndSwap(int32(RoleFollower), int32(RolePrimary)) {
		s.synced.Store(true)
		s.setPrimary("")
		s.logf("promoted to primary at seq %d", s.applied.Load())
	}
	last := s.applied.Load()
	if s.wal != nil {
		last = s.wal.LastSeq()
	}
	return WriteJSON(w, http.StatusOK, promoteResponse{Role: s.currentRole().String(), LastSeq: last})
}

// retargetRequest is the body, and the answer, of POST /v1/repl/primary.
type retargetRequest struct {
	Primary string `json:"primary"`
}

// handleRetarget points this node at a new primary (after a failover).
func (s *Server) handleRetarget(w http.ResponseWriter, r *http.Request) error {
	var req retargetRequest
	if err := Decode(r, &req); err != nil {
		return err
	}
	s.setPrimary(req.Primary)
	return WriteJSON(w, http.StatusOK, req)
}

// applyReplicated applies one record shipped from the primary through
// apply, under a commit that mirrors it into the local WAL at the primary's
// seq: durable first, then visible, as on the primary. Called by the
// follower loop strictly in sequence order. A record this node cannot apply
// — refused, a no-op here (the primary never logs one), or failed by an
// injected fault — is mirrored all the same, so the local log stays
// contiguous, and the node is marked diverged: resuming from the local seq
// would skip it forever. Only a failed mirror is a plain error.
func (s *Server) applyReplicated(rec wal.Record) error {
	if s.currentRole() != RoleFollower {
		return fmt.Errorf("server: applyReplicated on a %s", s.currentRole())
	}
	if s.wal == nil {
		return fmt.Errorf("server: applyReplicated needs Config.WAL")
	}
	mirrored := false
	mirror := func() error {
		err := s.wal.AppendMirror(rec)
		mirrored = err == nil
		return err
	}
	var err error
	if s.cfg.StreamFaults != nil &&
		s.cfg.StreamFaults(faultinject.ReplApplyRecord, s.applyEvN.Add(1)) == faultinject.FileErr {
		err = errors.New("injected apply fault")
	} else if err = s.applyLogged(rec, mirror); err == nil && !mirrored {
		err = errors.New("a no-op here, and the primary logs none")
	}
	if err != nil {
		if !mirrored {
			if merr := s.wal.AppendMirror(rec); merr != nil {
				return merr
			}
		}
		return s.divergedErr(fmt.Errorf("server: replicated record %d: %w", rec.Seq, err))
	}
	s.applied.Store(rec.Seq)
	s.repl.heardUpTo(rec.Seq)
	s.kickCheckpoint()
	return nil
}

// installSnapshot replaces the follower's entire serving state with a
// primary checkpoint covering seq: the bootstrap (and 410-recovery) path.
// The checkpoint is installed durably in the local WAL and the log is
// repositioned to seq, so a restart recovers the bootstrapped state without
// talking to the primary.
func (s *Server) installSnapshot(seq uint64, payload []byte) error {
	if s.currentRole() != RoleFollower {
		return fmt.Errorf("server: installSnapshot on a %s", s.currentRole())
	}
	if s.wal == nil {
		return fmt.Errorf("server: installSnapshot needs Config.WAL")
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	n, err := s.installCheckpoint(payload)
	if err != nil {
		return err
	}
	if err := s.wal.WriteCheckpoint(seq, payload); err != nil {
		return err
	}
	if err := s.wal.AdvanceTo(seq); err != nil {
		return err
	}
	s.applied.Store(seq)
	s.repl.heardUpTo(seq)
	s.logf("installed snapshot at seq %d (%d database(s))", seq, n)
	return nil
}

// streamBatch bounds how many records one ReadFrom pass ships before the
// handler flushes; streamHeartbeatEvery is the idle-stream heartbeat cadence
// (and the granularity at which a stream notices draining).
const streamBatch = 256

const streamHeartbeatEvery = 500 * 1000 * 1000 // 500ms in ns; avoids importing time twice

// handleReplSnapshot serves the newest checkpoint frame raw, cutting a
// fresh checkpoint first so a bootstrap never replays a long log tail. A
// primary with an empty log serves seq 0 and no body: bootstrap from
// nothing, stream from 0.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, _ *http.Request) error {
	defer s.bypass(admission.Replication).Done(0, false)
	if s.wal == nil {
		return &badRequestError{fmt.Errorf("replication requires a data directory")}
	}
	if s.recovering.Load() {
		return ErrRecovering
	}
	if err := s.Checkpoint(); err != nil {
		return err
	}
	seq, frame, err := s.wal.NewestCheckpoint()
	if err != nil {
		return err
	}
	s.repl.SnapshotsServed.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Repl-Seq", strconv.FormatUint(seq, 10))
	w.WriteHeader(http.StatusOK)
	w.Write(frame) //nolint:errcheck // headers are committed; the follower re-fetches on a short body
	return nil
}

// handleReplStream streams WAL frames with Seq > from, then heartbeats
// while idle. Compaction past `from` is a 410 (code "compacted"): the
// follower must re-bootstrap from the snapshot.
func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) error {
	defer s.bypass(admission.Replication).Done(0, false)
	if s.wal == nil {
		return &badRequestError{fmt.Errorf("replication requires a data directory")}
	}
	if s.recovering.Load() {
		return ErrRecovering
	}
	var from uint64
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			return &badRequestError{fmt.Errorf("bad from=%q: %w", q, err)}
		}
		from = v
	}
	// Probe compaction before committing the 200: the follower branches on
	// the status code.
	recs, err := s.wal.ReadFrom(from, streamBatch)
	if err != nil {
		return err // ErrCompacted maps to 410
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		return fmt.Errorf("server: response writer cannot stream")
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Repl-Last-Seq", strconv.FormatUint(s.wal.LastSeq(), 10))
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	s.repl.StreamsServed.Add(1)

	ctx := r.Context()
	cur := from
	for {
		for _, rec := range recs {
			if !s.writeStreamFrame(w, wal.EncodeFrame(rec)) {
				return nil
			}
			cur = rec.Seq
			s.repl.FramesSent.Add(1)
		}
		recs = nil // consumed; an idle heartbeat must not replay the batch
		fl.Flush()
		if s.tr.draining.Load() || ctx.Err() != nil {
			return nil
		}
		wctx, cancel := context.WithTimeout(ctx, streamHeartbeatEvery)
		werr := s.wal.WaitFor(wctx, cur+1)
		cancel()
		switch {
		case werr == nil:
		case errors.Is(werr, context.DeadlineExceeded):
			// Idle: heartbeat the current last seq so the follower can tell
			// "caught up" from "stalled".
			hb := wal.EncodeFrame(wal.Record{Seq: s.wal.LastSeq(), Type: wal.TypeHeartbeat})
			if !s.writeStreamFrame(w, hb) {
				return nil
			}
			fl.Flush()
			continue
		default:
			return nil // client gone, store closing, or store broken
		}
		recs, err = s.wal.ReadFrom(cur, streamBatch)
		if err != nil {
			// Compacted under a live stream (checkpoint pruned our position):
			// drop the connection; the follower reconnects and gets the 410.
			return nil
		}
	}
}

// writeStreamFrame writes one frame to the stream, consulting the
// stream-fault plan first. Returns false when the stream must end (write
// failure or injected fault).
func (s *Server) writeStreamFrame(w http.ResponseWriter, frame []byte) bool {
	switch act := s.fireStreamFault(); act {
	case faultinject.FileErr:
		return false // drop the connection before the frame
	case faultinject.FileShortWrite:
		w.Write(frame[:len(frame)/2]) //nolint:errcheck // torn frame by design
		return false
	case faultinject.FileCorrupt:
		frame = append([]byte(nil), frame...)
		frame[len(frame)-1] ^= 0x01 // any body bit: CRC32C catches it downstream
	case faultinject.FileKill, faultinject.FileKillTorn:
		faultinject.KillNow()
	}
	_, err := w.Write(frame)
	return err == nil
}

// fireStreamFault consults the stream fault plan at the per-frame probe.
func (s *Server) fireStreamFault() faultinject.FileAction {
	if s.cfg.StreamFaults == nil {
		return faultinject.FileOK
	}
	n := s.streamEvN.Add(1)
	return s.cfg.StreamFaults(faultinject.ReplStreamFrame, n)
}

// handleReplStatus serves the raw replication view; the router polls this
// for write acks, lag and promotion decisions.
func (s *Server) handleReplStatus(w http.ResponseWriter, _ *http.Request) {
	defer s.bypass(admission.Replication).Done(0, false)
	st := s.replicationStats()
	if st == nil {
		st = &ReplicationStats{Role: s.currentRole().String(), Synced: s.synced.Load(),
			QueueDepth: int64(s.adm.QueueDepth())}
	}
	WriteJSON(w, http.StatusOK, st) //nolint:errcheck // best-effort status body
}

// replicationStats builds the node's replication view; nil for a plain
// non-durable primary (replication needs a WAL).
func (s *Server) replicationStats() *ReplicationStats {
	role := s.currentRole()
	if role == RolePrimary && s.wal == nil {
		return nil
	}
	rs := &ReplicationStats{
		Role:            role.String(),
		Primary:         s.primary(),
		AppliedSeq:      s.appliedSeq(),
		Synced:          s.synced.Load(),
		Diverged:        s.diverged.Load(),
		LastStreamError: s.repl.streamError(),
		QueueDepth:      int64(s.adm.QueueDepth()),

		Resumes:            s.repl.Resumes.Load(),
		SnapshotBootstraps: s.repl.SnapshotBootstraps.Load(),
		Rebootstraps:       s.repl.Rebootstraps.Load(),
		FramesReceived:     s.repl.FramesReceived.Load(),
		BytesReceived:      s.repl.BytesReceived.Load(),
		StreamsServed:      s.repl.StreamsServed.Load(),
		FramesSent:         s.repl.FramesSent.Load(),
		SnapshotsServed:    s.repl.SnapshotsServed.Load(),
	}
	switch role {
	case RolePrimary:
		rs.LastHeardSeq = rs.AppliedSeq
	case RoleFollower:
		rs.LastHeardSeq = s.repl.LastHeardSeq.Load()
		if rs.LastHeardSeq > rs.AppliedSeq {
			rs.LagRecords = int64(rs.LastHeardSeq - rs.AppliedSeq)
		}
	}
	s.progMu.RLock()
	if len(s.programs) > 0 {
		rs.Epochs = make(map[string]uint64, len(s.programs))
		for name, p := range s.programs {
			rs.Epochs[name] = p.current().epoch
		}
	}
	s.progMu.RUnlock()
	return rs
}
