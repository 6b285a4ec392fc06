package server

// Durability: the serving layer's write-ahead logging and recovery.
//
// The contract is acked-implies-durable and visible-implies-durable. Every
// mutation (program load, assert, retract) appends one record to the WAL
// *inside* its critical section, after validation and lint but before the
// copy-on-write snapshot swap that makes it visible — so a mutation the
// client saw acknowledged, and a mutation any query could have observed,
// is on disk (fsynced first, under -fsync=always) before either happens.
// Replaying the log therefore reproduces the exact pre-crash sequence of
// snapshots, including their epochs: a checkpoint stores each database's
// epoch, and every replayed update bumps it by one, exactly as the
// original did (no-op updates are never logged).
//
// Checkpoints cut the log. The checkpointer takes the writer lock just
// long enough to capture every program's current snapshot together with
// the log position (Rotate), so the pair is consistent; serializing the
// databases (Database.String round-trips through Parse) and writing the
// checkpoint file happen off-lock, concurrent with new writes.

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/lattice"
	"repro/internal/wal"
)

// record is the WAL payload of a mutation. A program load (wal.TypeLoad)
// carries DB and Src. An assert/retract (wal.TypeUpdate) carries the
// request's raw clause source plus the clearance it was authorized under;
// replay re-runs the same deterministic parse, authorization and lint. typ
// is the WAL record's type, not part of the payload.
type record struct {
	typ       wal.RecordType
	DB        string `json:"db"`
	Src       string `json:"src,omitempty"`
	Clauses   string `json:"clauses,omitempty"`
	Clearance string `json:"clearance,omitempty"`
	Retract   bool   `json:"retract,omitempty"`
}

// checkpointPayload is the body of a checkpoint file: every database,
// serialized through Database.String (which Parse round-trips), with the
// epoch to resume at.
type checkpointPayload struct {
	Databases []checkpointDB `json:"databases"`
}

type checkpointDB struct {
	Name  string `json:"name"`
	Epoch uint64 `json:"epoch"`
	Src   string `json:"src"`
}

// Recover applies what wal.Open found on disk: it installs every
// checkpointed database (re-linting each — a program the static layer
// rejects never becomes servable, even out of a checkpoint), replays the
// log tail in sequence order, then applies bootLoads for any database name
// not already recovered (first boot, or a database added to the command
// line). Until Recover returns, the server refuses writes with
// ErrRecovering and /v1/readyz reports 503; /v1/healthz stays live
// throughout and reports replay progress. A Recover that fails leaves the
// server recovering: it takes no write and cuts no checkpoint, which would
// cover the records it could not replay.
//
// A server built with Config.WAL starts in the recovering state and must
// be handed its wal.Recovery exactly once, before writes are expected.
func (s *Server) Recover(rec *wal.Recovery, bootLoads map[string]string) error {
	if s.wal == nil {
		return fmt.Errorf("server: Recover needs Config.WAL")
	}
	start := time.Now()

	if len(rec.Checkpoint) > 0 {
		s.walMu.Lock()
		n, err := s.installCheckpoint(rec.Checkpoint)
		s.walMu.Unlock()
		if err != nil {
			return err
		}
		s.logf("recovery: checkpoint restored %d database(s) at seq %d", n, rec.CheckpointSeq)
	}

	s.replayTotal.Store(int64(len(rec.Records)))
	for _, r := range rec.Records {
		// Replay never re-appends: the record is already durable.
		if err := s.applyLogged(r, nil); err != nil {
			return fmt.Errorf("server: replaying record %d: %w", r.Seq, err)
		}
		s.replayDone.Add(1)
	}

	// The recovered state covers everything in the local log; replication
	// resumes from here (a restarted follower streams from this seq).
	applied := rec.CheckpointSeq
	if n := len(rec.Records); n > 0 {
		applied = rec.Records[n-1].Seq
	}
	s.applied.Store(applied)
	s.repl.heardUpTo(applied)

	names := make([]string, 0, len(bootLoads))
	for name := range bootLoads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.progMu.RLock()
		_, recovered := s.programs[name]
		s.progMu.RUnlock()
		if recovered {
			s.logf("recovery: %q recovered from the log; skipping its command-line load", name)
			continue
		}
		if err := s.Load(name, bootLoads[name]); err != nil {
			return err
		}
	}

	s.recMu.Lock()
	s.recStats = RecoveryStats{
		CheckpointsLoaded:  rec.CheckpointsLoaded,
		CheckpointsSkipped: rec.CheckpointsSkipped,
		RecordsReplayed:    int64(len(rec.Records)),
		RecordsTruncated:   rec.TruncatedRecords,
		BytesTruncated:     rec.TruncatedBytes,
		DurationMS:         time.Since(start).Milliseconds(),
	}
	s.recMu.Unlock()
	s.recovering.Store(false)
	s.logf("recovery: complete in %s: %d checkpoint(s), %d record(s) replayed, %d truncated",
		time.Since(start).Round(time.Millisecond), rec.CheckpointsLoaded, len(rec.Records), rec.TruncatedRecords)
	return nil
}

// apply applies one load or update record, wherever it comes from: a
// client's write, a log record replayed at boot, or a record replicated
// from the primary. The callers differ only in commit and in what a failure
// means. commit makes the record durable — the live path appends it to the
// WAL, a follower mirrors it into its own, replay passes nil — and runs
// after the record is parsed, authorized and linted and before it is
// visible; an update that changes nothing never commits. A commit error
// aborts the record with nothing installed.
//
// apply takes walMu itself: exclusively for a load, shared for an update,
// whose program it looks up under the lock. So no load lands between an
// update's lookup and its commit: the log's order is the order programs are
// installed and written, and replaying it rebuilds what was acknowledged.
// A load is parsed, linted and prepared before the lock: only its commit
// and install are ordered.
func (s *Server) apply(ctx context.Context, rec record, commit func() error) (uint64, int, invalidation, error) {
	switch rec.typ {
	case wal.TypeUpdate:
		s.walMu.RLock()
		defer s.walMu.RUnlock()
		prog, err := s.program(rec.DB)
		if err != nil {
			return 0, 0, invalidation{}, err
		}
		return prog.update(ctx, rec.Clauses, lattice.Label(rec.Clearance), rec.Retract, commit)
	case wal.TypeLoad:
		prog, diags, err := newPrepared(rec.DB, rec.Src, 1, s.prepLimits())
		if err != nil {
			return 0, 0, invalidation{}, err
		}
		for _, d := range diags {
			s.logf("load %s: %s", rec.DB, d)
		}
		s.walMu.Lock()
		if commit != nil {
			if err := commit(); err != nil {
				s.walMu.Unlock()
				return 0, 0, invalidation{}, err
			}
		}
		s.install(rec.DB, prog)
		s.cache.Reset(rec.DB)
		s.walMu.Unlock()
		snap := prog.current()
		nl, ns, np := snap.db.Counts()
		s.logf("loaded %s: |Λ|=%d |Σ|=%d |Π|=%d", rec.DB, nl, ns, np)
		return snap.epoch, 0, invalidation{}, nil
	}
	return 0, 0, invalidation{}, fmt.Errorf("unknown record type %d", rec.typ)
}

// applyLogged decodes a logged record and applies it under commit. A logged
// record is committed already — on this node's log or on the primary's —
// so nothing may give up on it half-way: no request context applies, and it
// is bounded by the prepare limits alone.
func (s *Server) applyLogged(r wal.Record, commit func() error) error {
	rec := record{typ: r.Type}
	if err := json.Unmarshal(r.Payload, &rec); err != nil {
		return fmt.Errorf("decoding record %d: %w", r.Seq, err)
	}
	_, _, _, err := s.apply(context.Background(), rec, commit)
	return err
}

// logCommit is the live path's commit: it appends rec to the WAL (and
// fsyncs, under always) and reports its seq to *seq when seq is non-nil.
// nil without a WAL.
func (s *Server) logCommit(rec record, seq *uint64) func() error {
	if s.wal == nil {
		return nil
	}
	return func() error {
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("server: encoding record: %w", err)
		}
		n, err := s.wal.Append(rec.typ, payload)
		if err != nil {
			return fmt.Errorf("server: logging record: %w", err)
		}
		if seq != nil {
			*seq = n
		}
		return nil
	}
}

// installCheckpoint replaces the whole serving state with a checkpoint's:
// every database it holds, re-linted (a program the static layer rejects
// never becomes servable, even out of a checkpoint) and resumed at its
// epoch, and no other. It returns how many databases it installed. The
// caller holds walMu exclusively, so the state and the log position it
// stands for move together.
func (s *Server) installCheckpoint(payload []byte) (int, error) {
	var cp checkpointPayload
	if err := json.Unmarshal(payload, &cp); err != nil {
		return 0, fmt.Errorf("server: decoding checkpoint: %w", err)
	}
	keep := make(map[string]bool, len(cp.Databases))
	for _, db := range cp.Databases {
		prog, diags, err := newPrepared(db.Name, db.Src, db.Epoch, s.prepLimits())
		if err != nil {
			return 0, fmt.Errorf("server: restoring %q from checkpoint: %w", db.Name, err)
		}
		for _, d := range diags {
			s.logf("recover %s: %s", db.Name, d)
		}
		s.install(db.Name, prog)
		s.cache.Reset(db.Name)
		keep[db.Name] = true
	}
	s.progMu.Lock()
	for name := range s.programs {
		if !keep[name] {
			delete(s.programs, name)
			s.cache.Reset(name)
		}
	}
	s.progMu.Unlock()
	return len(cp.Databases), nil
}

// Checkpoint serializes every loaded database and durably installs it as a
// checkpoint covering the log so far. Snapshot capture and the log cut are
// atomic with respect to writers (both sides of s.walMu); serialization
// and the checkpoint write happen off-lock. No-op when the log has not
// grown since the last checkpoint, when durability is off, and when the
// programs do not hold what the log does — while the server is recovering,
// or once a follower has diverged — for the checkpoint would cover all of
// the log.
func (s *Server) Checkpoint() error {
	if s.wal == nil || s.recovering.Load() || s.diverged.Load() {
		return nil
	}
	s.walMu.Lock()
	s.progMu.RLock()
	snaps := make(map[string]*snapshot, len(s.programs))
	for name, p := range s.programs {
		snaps[name] = p.current()
	}
	s.progMu.RUnlock()
	seq, err := s.wal.Rotate()
	s.walMu.Unlock()
	if err != nil {
		return err
	}
	if seq == 0 || seq == s.wal.StatsSnapshot().LastCheckpointSeq {
		return nil // nothing new to cover
	}

	cp := checkpointPayload{}
	names := make([]string, 0, len(snaps))
	for name := range snaps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		snap := snaps[name]
		cp.Databases = append(cp.Databases, checkpointDB{Name: name, Epoch: snap.epoch, Src: snap.db.Database().String()})
	}
	payload, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("server: encoding checkpoint: %w", err)
	}
	return s.wal.WriteCheckpoint(seq, payload)
}

// checkpointLoop writes checkpoints every Config.CheckpointInterval and
// whenever kickCheckpoint signals that Config.CheckpointEvery records have
// accumulated. It exits when ctx is done; Serve then writes a final
// checkpoint as part of the drain.
func (s *Server) checkpointLoop(ctx context.Context) {
	interval := s.cfg.CheckpointInterval
	var tick <-chan time.Time
	if interval > 0 {
		t := time.NewTicker(interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
		case <-s.ckptKick:
		}
		if err := s.Checkpoint(); err != nil {
			s.logf("checkpoint: %v", err)
		}
	}
}

// kickCheckpoint nudges the checkpoint loop when enough records have
// accumulated since the last checkpoint. Non-blocking: a kick while one is
// pending is redundant.
func (s *Server) kickCheckpoint() {
	if s.wal == nil || s.cfg.CheckpointEvery <= 0 {
		return
	}
	st := s.wal.StatsSnapshot()
	if st.LastSeq-st.LastCheckpointSeq < uint64(s.cfg.CheckpointEvery) {
		return
	}
	select {
	case s.ckptKick <- struct{}{}:
	default:
	}
}

// Recovering reports whether the server is still replaying its log; writes
// are refused until this is false.
func (s *Server) Recovering() bool { return s.recovering.Load() }

// health renders the liveness/readiness view; the transport reads an "ok"
// one as "draining" once the drain has begun.
func (s *Server) health() HealthResponse {
	h := HealthResponse{Status: "ok", Role: s.currentRole().String(), AppliedSeq: s.appliedSeq()}
	switch {
	case s.recovering.Load():
		h.Status = "recovering"
		h.Recovering = true
		h.ReplayDone = s.replayDone.Load()
		h.ReplayTotal = s.replayTotal.Load()
	case s.diverged.Load():
		// The follower's WAL and serving state disagree; it must not serve
		// until rebuilt. Distinct from "syncing" — this one never clears.
		h.Status = "diverged"
	case !s.synced.Load():
		// A follower that has not yet caught up serves stale reads at best;
		// keep it out of rotation until the stream reaches the primary's tip.
		h.Status = "syncing"
	}
	return h
}

// durabilityStats snapshots the WAL and recovery counters for /v1/stats.
func (s *Server) durabilityStats() *DurabilityStats {
	if s.wal == nil {
		return nil
	}
	st := s.wal.StatsSnapshot()
	s.recMu.Lock()
	rec := s.recStats
	s.recMu.Unlock()
	return &DurabilityStats{
		LastSeq:            st.LastSeq,
		Appended:           st.Appended,
		Syncs:              st.Syncs,
		CheckpointsWritten: st.CheckpointsWritten,
		LastCheckpointSeq:  st.LastCheckpointSeq,
		Recovering:         s.recovering.Load(),
		ReplayDone:         s.replayDone.Load(),
		ReplayTotal:        s.replayTotal.Load(),
		Recovery:           rec,
	}
}
