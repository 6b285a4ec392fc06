package server

// The follower loop: what a follower's Serve runs to mirror its primary.
// It bootstraps from the primary's newest checkpoint (GET
// /v1/repl/snapshot), then streams the WAL tail (GET
// /v1/repl/stream?from=S) and applies each record through applyReplicated.
//
// The stream is self-healing: a torn or corrupt frame (CRC32C fails) drops
// the connection and the follower reconnects from its last durable seq with
// jittered backoff; a 410 Gone (the primary compacted past our position)
// re-bootstraps from the snapshot. Every retry resumes exactly where the
// local log ends, so no acked write is ever skipped or doubled.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/wal"
)

// streamStallTimeout bounds silence on a live stream. The primary
// heartbeats every 500ms even when idle, so hearing nothing for several
// intervals means the connection is dead — a silent partition (no FIN, no
// RST) would otherwise leave the follower blocked in the read forever,
// counting heartbeats but never noticing their absence. The watchdog
// cancels the stream so the normal reconnect-with-backoff path takes over.
const streamStallTimeout = 2500 * time.Millisecond

// stallGuard wraps a stream body and pushes the watchdog deadline out on
// every chunk of bytes that arrives, so steady progress (even mid-frame,
// e.g. a large checkpoint) never trips it while true silence does.
type stallGuard struct {
	r io.Reader
	t *time.Timer
}

func (g *stallGuard) Read(p []byte) (int, error) {
	n, err := g.r.Read(p)
	if n > 0 {
		g.t.Reset(streamStallTimeout)
	}
	return n, err
}

// startFollowing runs the follower loop in the background until ctx is
// done or stopFollowing is called.
func (s *Server) startFollowing(ctx context.Context) {
	ctx, stop := context.WithCancel(ctx)
	done := make(chan struct{})
	s.upMu.Lock()
	s.stopFollow, s.followDone = stop, done
	s.upMu.Unlock()
	go func() {
		defer close(done)
		s.follow(ctx)
	}()
}

// stopFollowing ends the follower loop and waits for it to return, so no
// record is applied after it. A no-op when no loop runs; safe to call more
// than once.
func (s *Server) stopFollowing() {
	s.upMu.Lock()
	stop, done := s.stopFollow, s.followDone
	s.upMu.Unlock()
	if stop != nil {
		stop()
		<-done
	}
}

// follow streams until ctx is done. Each failed stream records the error
// for /v1/stats, then reconnects from the last durable seq with jittered
// backoff (resetting the backoff ladder after any progress).
func (s *Server) follow(ctx context.Context) {
	policy := DefaultRetryPolicy()
	// The mirrored log replays before the stream resumes where it ends.
	for s.recovering.Load() {
		if policy.SleepBackoff(ctx, 1) != nil {
			return
		}
	}
	attempt, rebootstrap := 0, false
	for {
		sctx, cut := context.WithCancel(ctx)
		s.upMu.Lock()
		s.cutStream = cut
		s.upMu.Unlock()
		progressed, err := s.streamOnce(sctx, rebootstrap)
		interrupted := sctx.Err() != nil // before cut(), which would mask it
		cut()
		if ctx.Err() != nil {
			return
		}
		if progressed {
			// Progress starts with the bootstrap a rebootstrap asked for.
			attempt, rebootstrap = 0, false
		}
		if errors.Is(err, errDiverged) {
			// The local WAL holds a record the serving state could not
			// apply; reconnecting would resume past it and silently skip it
			// forever.
			if !s.cfg.RebootstrapOnDiverge {
				// Halt — the node is out of the fleet (readiness is already
				// failed) until its data directory is rebuilt.
				s.logf("replication HALTED at seq %d: %v", s.wal.LastSeq(), err)
				return
			}
			// Opt-in recovery: discard the diverged state by forcing a fresh
			// snapshot bootstrap on the next attempt. Installing the
			// primary's checkpoint (whose seq covers the unappliable record)
			// replaces the serving state wholesale and repositions the local
			// log past the gap.
			rebootstrap = true
			s.logf("replication: state diverged at seq %d: %v; re-bootstrapping from %s", s.wal.LastSeq(), err, s.primary())
		}
		if err != nil && !interrupted {
			s.repl.setStreamError(err.Error())
			s.repl.Resumes.Add(1)
			s.logf("replication: stream from %s failed at seq %d: %v", s.primary(), s.wal.LastSeq(), err)
		}
		attempt = min(attempt+1, 6) // cap the ladder; the jittered ceiling stays bounded
		if policy.SleepBackoff(ctx, attempt) != nil {
			return
		}
	}
}

// streamOnce runs one stream: bootstrap if the local log is empty or
// compacted away, or to rebuild a diverged state, then apply frames until
// the connection breaks. Returns whether anything was installed or applied
// (for backoff reset).
func (s *Server) streamOnce(ctx context.Context, rebootstrap bool) (progressed bool, err error) {
	primary := s.primary()
	if primary == "" {
		return false, fmt.Errorf("server: no primary configured")
	}
	primary = BaseURL(primary)

	// The stall watchdog: rctx governs every request this attempt makes,
	// and the timer cancels it when nothing — no frame, no heartbeat, not a
	// byte — arrives for streamStallTimeout. stalled rewrites the resulting
	// "context canceled" into what actually happened.
	rctx, rcancel := context.WithCancel(ctx)
	defer rcancel()
	stall := time.AfterFunc(streamStallTimeout, rcancel)
	defer stall.Stop()
	stalled := func(err error) error {
		if rctx.Err() != nil && ctx.Err() == nil {
			return fmt.Errorf("server: stream from %s went silent for %v: %w", primary, streamStallTimeout, err)
		}
		return err
	}

	from := s.wal.LastSeq()
	if rebootstrap || (from == 0 && s.applied.Load() == 0) {
		if err := s.bootstrap(rctx, primary, stall); err != nil {
			return false, stalled(err)
		}
		if rebootstrap {
			// The diverged state is gone with the wiped state; the node may
			// re-enter rotation once it catches up like any fresh bootstrap.
			if s.diverged.CompareAndSwap(true, false) {
				s.repl.setStreamError("")
			}
			s.repl.Rebootstraps.Add(1)
			s.logf("replication: rebootstrapped after divergence; resuming from seq %d", s.wal.LastSeq())
		}
		progressed = true
		from = s.wal.LastSeq()
	}

	req, err := http.NewRequestWithContext(rctx, http.MethodGet,
		primary+"/v1/repl/stream?from="+strconv.FormatUint(from, 10), nil)
	if err != nil {
		return progressed, err
	}
	// No client timeout: the stream is long-lived by design. Dial,
	// response-header and body-read stalls are all bounded by the watchdog.
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return progressed, stalled(err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// Our position was compacted into a checkpoint: re-bootstrap, then
		// let the caller reconnect (which will stream from the new base).
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // drain for keep-alive
		s.logf("replication: primary compacted past seq %d; re-bootstrapping", from)
		if err := s.bootstrap(rctx, primary, stall); err != nil {
			return progressed, stalled(err)
		}
		return true, nil
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return progressed, fmt.Errorf("server: stream %s from=%d: HTTP %d: %s", primary, from, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if h := resp.Header.Get("X-Repl-Last-Seq"); h != "" {
		if v, perr := strconv.ParseUint(h, 10, 64); perr == nil {
			s.repl.heardUpTo(v)
		}
	}
	s.maybeSynced()

	sc := wal.NewFrameScanner(&stallGuard{r: resp.Body, t: stall})
	for {
		rec, serr := sc.Next()
		if serr != nil {
			if rctx.Err() != nil && ctx.Err() == nil {
				return progressed, stalled(serr)
			}
			if errors.Is(serr, io.EOF) {
				// The primary closed the stream cleanly (drain or injected
				// drop); reconnect from wherever we are.
				return progressed, fmt.Errorf("server: stream closed by primary")
			}
			return progressed, fmt.Errorf("server: bad frame after seq %d: %w", s.wal.LastSeq(), serr)
		}
		s.repl.FramesReceived.Add(1)
		s.repl.BytesReceived.Add(int64(len(rec.Payload)))
		if rec.Type == wal.TypeHeartbeat {
			s.repl.heardUpTo(rec.Seq)
			s.maybeSynced()
			continue
		}
		if want := s.wal.LastSeq() + 1; rec.Seq != want {
			return progressed, fmt.Errorf("server: stream skipped to seq %d, want %d", rec.Seq, want)
		}
		if aerr := s.applyReplicated(rec); aerr != nil {
			return progressed, aerr
		}
		progressed = true
		s.maybeSynced()
	}
}

// maybeSynced flips the follower ready once it has applied everything the
// primary is known to have.
func (s *Server) maybeSynced() {
	if s.applied.Load() >= s.repl.LastHeardSeq.Load() {
		s.markSynced()
	}
}

// bootstrap installs the primary's newest checkpoint as the follower's
// entire state, positioning the local log at the checkpoint's seq. stall
// is the caller's watchdog timer; the snapshot body read feeds it so a
// stalled transfer is cut like a stalled stream.
func (s *Server) bootstrap(ctx context.Context, primary string, stall *time.Timer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, primary+"/v1/repl/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("server: snapshot %s: HTTP %d: %s", primary, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	seq, err := strconv.ParseUint(resp.Header.Get("X-Repl-Seq"), 10, 64)
	if err != nil {
		return fmt.Errorf("server: snapshot %s: bad X-Repl-Seq %q", primary, resp.Header.Get("X-Repl-Seq"))
	}
	frame, err := io.ReadAll(&stallGuard{r: resp.Body, t: stall})
	if err != nil {
		return fmt.Errorf("server: reading snapshot: %w", err)
	}
	if seq == 0 && len(frame) == 0 {
		// The primary has never written: nothing to install, stream from 0.
		s.logf("replication: primary %s is empty; streaming from the beginning", primary)
		return nil
	}
	rec, err := wal.DecodeFrameBytes(frame)
	if err != nil {
		return fmt.Errorf("server: snapshot frame: %w", err)
	}
	if rec.Type != wal.TypeCheckpoint || rec.Seq != seq {
		return fmt.Errorf("server: snapshot frame mismatch: type %d seq %d, header seq %d", rec.Type, rec.Seq, seq)
	}
	if err := s.installSnapshot(seq, rec.Payload); err != nil {
		return err
	}
	s.repl.SnapshotBootstraps.Add(1)
	s.logf("replication: bootstrapped from %s at seq %d (%d byte(s))", primary, seq, len(frame))
	return nil
}
