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

// loadRecord is the WAL payload of a program load (wal.TypeLoad).
type loadRecord struct {
	DB  string `json:"db"`
	Src string `json:"src"`
}

// updateRecord is the WAL payload of an assert/retract (wal.TypeUpdate).
// It carries the request's raw clause source plus the clearance it was
// authorized under; replay re-runs the same deterministic parse,
// authorization and lint.
type updateRecord struct {
	DB        string `json:"db"`
	Clauses   string `json:"clauses"`
	Clearance string `json:"clearance"`
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
// throughout and reports replay progress.
//
// A server built with Config.WAL starts in the recovering state and must
// be handed its wal.Recovery exactly once, before writes are expected.
func (s *Server) Recover(rec *wal.Recovery, bootLoads map[string]string) error {
	if s.wal == nil {
		return fmt.Errorf("server: Recover needs Config.WAL")
	}
	defer s.recovering.Store(false)
	start := time.Now()

	if len(rec.Checkpoint) > 0 {
		var cp checkpointPayload
		if err := json.Unmarshal(rec.Checkpoint, &cp); err != nil {
			return fmt.Errorf("server: decoding checkpoint: %w", err)
		}
		for _, db := range cp.Databases {
			if err := s.installProgram(db.Name, db.Src, db.Epoch); err != nil {
				return fmt.Errorf("server: restoring %q from checkpoint: %w", db.Name, err)
			}
		}
		s.logf("recovery: checkpoint restored %d database(s) at seq %d", len(cp.Databases), rec.CheckpointSeq)
	}

	s.replayTotal.Store(int64(len(rec.Records)))
	for _, r := range rec.Records {
		if err := s.replayRecord(r); err != nil {
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
	s.logf("recovery: complete in %s: %d checkpoint(s), %d record(s) replayed, %d truncated",
		time.Since(start).Round(time.Millisecond), rec.CheckpointsLoaded, len(rec.Records), rec.TruncatedRecords)
	return nil
}

// replayRecord applies one log record. Replay never re-appends: the record
// is already durable.
func (s *Server) replayRecord(r wal.Record) error {
	switch r.Type {
	case wal.TypeLoad:
		var lr loadRecord
		if err := json.Unmarshal(r.Payload, &lr); err != nil {
			return fmt.Errorf("decoding load record: %w", err)
		}
		// A load always (re)starts the program at epoch 1, as the original
		// Load did.
		return s.installProgram(lr.DB, lr.Src, 1)
	case wal.TypeUpdate:
		var ur updateRecord
		if err := json.Unmarshal(r.Payload, &ur); err != nil {
			return fmt.Errorf("decoding update record: %w", err)
		}
		prog, err := s.program(ur.DB)
		if err != nil {
			return err
		}
		// Replay runs before the server takes requests: nothing can give up
		// on it, so it is bounded by the prepare limits alone.
		_, _, _, err = prog.update(context.Background(), ur.Clauses, lattice.Label(ur.Clearance), ur.Retract, nil)
		return err
	}
	return fmt.Errorf("unknown record type %d", r.Type)
}

// installProgram parses, lints and installs a program at a given epoch,
// without logging — the recovery-side counterpart of Load.
func (s *Server) installProgram(name, src string, epoch uint64) error {
	prog, diags, err := newPreparedEpoch(name, src, epoch, s.prepLimits())
	if err != nil {
		return err
	}
	for _, d := range diags {
		s.logf("recover %s: %s", name, d)
	}
	s.install(name, prog)
	return nil
}

// Checkpoint serializes every loaded database and durably installs it as a
// checkpoint covering the log so far. Snapshot capture and the log cut are
// atomic with respect to writers (both sides of s.walMu); serialization
// and the checkpoint write happen off-lock. No-op when the log has not
// grown since the last checkpoint, or when durability is off.
func (s *Server) Checkpoint() error {
	if s.wal == nil {
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
