// Package replica is the front door of a multilogd fleet: the Router. The
// nodes behind it are plain servers — a primary, and followers that stream
// its WAL (internal/server owns both halves of replication, and the
// promote and retarget routes the router drives).
package replica

// The Router is the fleet's single front door. It speaks the same /v1
// protocol as a lone multilogd, so every existing client works unchanged,
// and behind it:
//
//   - read sessions are pinned to a replica — optionally partitioned by
//     clearance band, so one replica serves only unclassified traffic and
//     another only secret, a cheap MLS-flavored sharding — with the primary
//     as the fallback when no replica is healthy;
//   - writes go to the primary and are acknowledged only after every live
//     replica reports the write's WAL seq applied (semi-synchronous
//     replication: losing the primary plus any minority of replicas loses
//     no acked write). A replica that cannot keep up within AckTimeout is
//     marked unhealthy and dropped from the ack quorum rather than stalling
//     writers forever;
//   - read-your-writes holds per session: a session's reads carry the epoch
//     of its last acked write, and a replica still behind that epoch is
//     re-polled briefly (RYWHold) before the read is forwarded to the
//     primary;
//   - when the primary dies (consecutive probe failures, or a write hits a
//     transport error), the router promotes the most-caught-up healthy
//     follower, re-targets the rest, and write traffic follows. A rejected
//     write that comes back 421 not-primary likewise re-targets the router
//     (follow-the-leader).
//
// A dead primary that comes back is NOT reintegrated automatically — it
// would need to demote itself and re-sync first; operators restart it as a
// fresh follower of the new primary.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// BackendSpec names one replica and, optionally, the clearance bands it
// serves ("l0", "l1", ...). Empty bands = serves every clearance.
type BackendSpec struct {
	Addr  string
	Bands []string
}

// RouterConfig wires a Router.
type RouterConfig struct {
	// Primary is the write node's base URL.
	Primary string
	// Replicas lists the read replicas.
	Replicas []BackendSpec
	// AckTimeout bounds how long a write waits for each replica to apply it
	// before that replica is declared unhealthy. Default 5s.
	AckTimeout time.Duration
	// RYWHold bounds how long a read is held for its replica to reach the
	// session's last written epoch before it is forwarded to the primary.
	// Default 2s.
	RYWHold time.Duration
	// ProbeInterval is the health-probe cadence. Default 250ms.
	ProbeInterval time.Duration
	// Logf may be nil.
	Logf func(format string, args ...any)
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.AckTimeout == 0 {
		c.AckTimeout = 5 * time.Second
	}
	if c.RYWHold == 0 {
		c.RYWHold = 2 * time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	return c
}

// backend is one node the router can talk to.
type backend struct {
	addr   string
	client *server.Client
	bands  map[string]bool // empty: serves all clearances

	healthy  atomic.Bool
	deposed  atomic.Bool // a failed-over ex-primary; never auto-reintegrated
	applied  atomic.Uint64
	sessions atomic.Int64
	qdepth   atomic.Int64 // last gossiped admission queue depth
	failures atomic.Int32 // consecutive probe failures
}

func (b *backend) servesBand(clearance string) bool {
	return len(b.bands) == 0 || b.bands[clearance]
}

// routedSession is the router's view of one client session: where its
// reads are pinned, the lazily opened per-backend session tokens, and the
// read-your-writes epoch floor.
type routedSession struct {
	token string
	open  server.OpenRequest // replayed to (re)open backend sessions

	mu             sync.Mutex
	replica        *backend // read pin; nil = primary only
	replicaTok     string
	primaryTok     string
	primaryOn      *backend // which backend primaryTok was opened on
	lastWriteEpoch uint64
}

// Router fronts a primary plus replicas behind the standard /v1 protocol.
// It serves through a node's transport (server.Transport); what is its own
// is the routing policy.
type Router struct {
	cfg      RouterConfig
	logf     func(format string, args ...any)
	tr       *server.Transport
	start    time.Time
	backends []*backend // [0] is the boot primary; order is stable

	primMu  sync.Mutex
	primary *backend
	failMu  sync.Mutex // single-flights failover

	sessMu   sync.Mutex
	sessions map[string]*routedSession

	queries      atomic.Int64
	qErrors      atomic.Int64
	qTrunc       atomic.Int64
	cacheHits    atomic.Int64
	writesAcked  atomic.Int64
	ackTimeouts  atomic.Int64
	rywHolds     atomic.Int64
	rywForwards  atomic.Int64
	readFallback atomic.Int64
	resheds      atomic.Int64
	failovers    atomic.Int64
}

// NewRouter builds a router; it starts probing on Serve.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if cfg.Primary == "" {
		return nil, fmt.Errorf("replica: router needs a primary")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r := &Router{cfg: cfg, logf: logf, tr: server.NewTransport(logf), start: time.Now(), sessions: map[string]*routedSession{}}
	hc := &http.Client{Timeout: 10 * time.Second}
	mk := func(spec BackendSpec) *backend {
		b := &backend{
			addr:   server.BaseURL(spec.Addr),
			client: server.NewClient(spec.Addr, hc),
			bands:  map[string]bool{},
		}
		for _, band := range spec.Bands {
			if band = strings.TrimSpace(band); band != "" {
				b.bands[band] = true
			}
		}
		return b
	}
	prim := mk(BackendSpec{Addr: cfg.Primary})
	prim.healthy.Store(true) // assume live until a probe says otherwise
	r.backends = append(r.backends, prim)
	r.primary = prim
	for _, spec := range cfg.Replicas {
		r.backends = append(r.backends, mk(spec))
	}
	return r, nil
}

func (r *Router) currentPrimary() *backend {
	r.primMu.Lock()
	defer r.primMu.Unlock()
	return r.primary
}

// pickReplica chooses the least-loaded healthy replica among those serving
// the clearance's band; nil when none qualifies (reads then go to the
// primary). Load is the admission queue depth each node gossips on
// /v1/repl/status, with pinned sessions as the tiebreak — so a replica
// buried in queued work stops attracting new sessions even if few are
// pinned to it.
func (r *Router) pickReplica(clearance string) *backend {
	prim := r.currentPrimary()
	var best *backend
	for _, b := range r.backends {
		if b == prim || !b.healthy.Load() || !b.servesBand(clearance) {
			continue
		}
		if best == nil || lighterLoaded(b, best) {
			best = b
		}
	}
	return best
}

// lighterLoaded orders replicas by gossiped queue depth, then by pinned
// sessions.
func lighterLoaded(a, b *backend) bool {
	if da, db := a.qdepth.Load(), b.qdepth.Load(); da != db {
		return da < db
	}
	return a.sessions.Load() < b.sessions.Load()
}

// Handler speaks the standard /v1 protocol, through the node's transport.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/session", r.tr.Wrap(r.handleOpen))
	mux.HandleFunc("POST /v1/session/close", r.tr.Wrap(r.handleClose))
	mux.HandleFunc("POST /v1/query", r.tr.Wrap(r.handleQuery))
	mux.HandleFunc("POST /v1/assert", r.tr.Wrap(func(w http.ResponseWriter, q *http.Request) error {
		return r.handleUpdate(w, q, false)
	}))
	mux.HandleFunc("POST /v1/retract", r.tr.Wrap(func(w http.ResponseWriter, q *http.Request) error {
		return r.handleUpdate(w, q, true)
	}))
	mux.HandleFunc("GET /v1/stats", r.tr.Wrap(r.handleStats))
	// Ready while the router has a live primary to write to.
	r.tr.HandleHealth(mux, func() server.HealthResponse {
		h := server.HealthResponse{Status: "ok", Role: "router"}
		if !r.currentPrimary().healthy.Load() {
			h.Status = "degraded"
		}
		return h
	})
	return mux
}

func (r *Router) handleOpen(w http.ResponseWriter, q *http.Request) error {
	var req server.OpenRequest
	if err := server.Decode(q, &req); err != nil {
		return err
	}
	token, err := server.NewToken()
	if err != nil {
		return err
	}
	rep := r.pickReplica(req.Clearance)
	target := r.currentPrimary()
	if rep != nil {
		target = rep
	}
	resp, err := target.client.Open(q.Context(), req)
	if err != nil && rep != nil {
		// The pinned replica failed at open time: fall back to the primary
		// rather than refusing the session.
		rep, target = nil, r.currentPrimary()
		resp, err = target.client.Open(q.Context(), req)
	}
	if err != nil {
		return err
	}

	s := &routedSession{token: "r-" + token, open: req, replica: rep}
	if rep != nil {
		s.replicaTok = resp.Session
		rep.sessions.Add(1)
	} else {
		s.primaryTok, s.primaryOn = resp.Session, target
	}
	r.sessMu.Lock()
	r.sessions[s.token] = s
	r.sessMu.Unlock()
	out := *resp
	out.Session = s.token
	return server.WriteJSON(w, http.StatusOK, out)
}

func (r *Router) lookup(token string) (*routedSession, error) {
	r.sessMu.Lock()
	defer r.sessMu.Unlock()
	if s := r.sessions[token]; s != nil {
		return s, nil
	}
	return nil, server.ErrUnknownSession
}

func (r *Router) handleClose(w http.ResponseWriter, q *http.Request) error {
	var req server.CloseRequest
	if err := server.Decode(q, &req); err != nil {
		return err
	}
	r.sessMu.Lock()
	s := r.sessions[req.Session]
	delete(r.sessions, req.Session)
	r.sessMu.Unlock()
	closed := false
	if s != nil {
		closed = true
		s.mu.Lock()
		rep, repTok, prim, primTok := s.replica, s.replicaTok, s.primaryOn, s.primaryTok
		s.mu.Unlock()
		if rep != nil {
			rep.sessions.Add(-1)
			if repTok != "" {
				rep.client.Close(q.Context(), repTok) //nolint:errcheck // best-effort backend close
			}
		}
		if prim != nil && primTok != "" {
			prim.client.Close(q.Context(), primTok) //nolint:errcheck // best-effort backend close
		}
	}
	return server.WriteJSON(w, http.StatusOK, server.CloseResponse{Closed: closed})
}

func (r *Router) handleQuery(w http.ResponseWriter, q *http.Request) error {
	var req server.QueryRequest
	if err := server.Decode(q, &req); err != nil {
		return err
	}
	s, err := r.lookup(req.Session)
	if err != nil {
		return err
	}
	resp, err := r.routeQuery(q.Context(), s, req)
	if resp == nil {
		r.qErrors.Add(1)
	} else {
		r.queries.Add(1)
		if err != nil {
			r.qTrunc.Add(1) // a limit stop's partial answers, a 408
		}
		if resp.Cached {
			r.cacheHits.Add(1)
		}
	}
	return server.ReplyQuery(w, resp, err)
}

// routeQuery answers s's read on its pinned replica when that one is
// healthy and has applied the session's last write, and on the primary
// otherwise. resp is nil, or complete, or a limit stop's partial answers
// beside err.
func (r *Router) routeQuery(ctx context.Context, s *routedSession, req server.QueryRequest) (*server.QueryResponse, error) {
	s.mu.Lock()
	rep, floor := s.replica, s.lastWriteEpoch
	s.mu.Unlock()

	if rep != nil && rep.healthy.Load() {
		resp, err := r.queryOn(ctx, s, rep, req, false)
		if resp != nil && resp.Epoch < floor {
			// Read-your-writes: the replica has not applied this session's
			// last write yet. Hold briefly and re-ask before giving up and
			// going to the primary.
			r.rywHolds.Add(1)
			deadline := time.Now().Add(r.cfg.RYWHold)
			for resp != nil && resp.Epoch < floor && time.Now().Before(deadline) && ctx.Err() == nil {
				time.Sleep(5 * time.Millisecond)
				resp, err = r.queryOn(ctx, s, rep, req, false)
			}
			if resp != nil && resp.Epoch < floor {
				r.rywForwards.Add(1)
				resp, err = nil, errStale
			}
		}
		if resp != nil || !fallbackWorthy(err) {
			return resp, err
		}
		if isShed(err) {
			// The pinned replica shed the read (429): move the pin to the
			// least-loaded replica and retry there before burdening the
			// primary with fallback reads.
			if resp, ok := r.reshedQuery(ctx, s, rep, req, floor); ok {
				return resp, nil
			}
		}
		r.readFallback.Add(1)
	}
	return r.queryOn(ctx, s, r.currentPrimary(), req, true)
}

// reshedQuery moves a session whose pinned replica shed its read to the
// least-loaded eligible replica (by queue-depth gossip) and retries there
// once. The pin moves permanently — the gossip already says the old home is
// the busier one. ok=false when no other replica qualifies or the retry
// fails or is stale; the caller then falls back to the primary.
func (r *Router) reshedQuery(ctx context.Context, s *routedSession, from *backend, req server.QueryRequest, floor uint64) (*server.QueryResponse, bool) {
	alt := r.pickReplica(s.open.Clearance)
	if alt == nil || alt == from {
		return nil, false
	}
	s.mu.Lock()
	if s.replica == from {
		s.replica, s.replicaTok = alt, ""
		from.sessions.Add(-1)
		alt.sessions.Add(1)
	}
	s.mu.Unlock()
	r.resheds.Add(1)
	resp, err := r.queryOn(ctx, s, alt, req, false)
	if err != nil || resp.Epoch < floor {
		return nil, false
	}
	return resp, true
}

// isShed says whether a backend reply was an admission-control 429.
func isShed(err error) bool {
	var re *server.RemoteError
	return errors.As(err, &re) && re.Status == http.StatusTooManyRequests
}

// errStale marks a replica read that could not reach the session's RYW
// epoch floor in time; the caller forwards to the primary.
var errStale = errors.New("replica: read is stale past the hold window")

// fallbackWorthy says whether a replica read error should be retried on
// the primary rather than surfaced: transport failures, 503s (replica
// recovering or syncing), staleness — but not semantic errors (parse,
// denied), which would fail identically everywhere.
func fallbackWorthy(err error) bool {
	if errors.Is(err, errStale) {
		return true
	}
	var re *server.RemoteError
	if errors.As(err, &re) {
		return re.Status == http.StatusServiceUnavailable || re.Status == http.StatusNotFound ||
			re.Status == http.StatusTooManyRequests
	}
	return true // transport-level
}

// queryOn runs one query on b through s's session there, lazily (re)opening
// the backend session (unknown-session after a backend restart or fallback
// re-opens once).
func (r *Router) queryOn(ctx context.Context, s *routedSession, b *backend, req server.QueryRequest, primarySide bool) (*server.QueryResponse, error) {
	tok, err := r.sessionOn(ctx, s, b, primarySide)
	if err != nil {
		return nil, err
	}
	req.Session = tok
	resp, err := b.client.QueryContext(ctx, req)
	if isUnknownSession(err) {
		if tok, err = r.reopenOn(ctx, s, b, primarySide); err != nil {
			return nil, err
		}
		req.Session = tok
		resp, err = b.client.QueryContext(ctx, req)
	}
	return resp, err
}

// sessionOn returns s's token on b, opening one if needed.
func (r *Router) sessionOn(ctx context.Context, s *routedSession, b *backend, primarySide bool) (string, error) {
	s.mu.Lock()
	var tok string
	if primarySide {
		if s.primaryOn == b {
			tok = s.primaryTok
		}
	} else {
		tok = s.replicaTok
	}
	s.mu.Unlock()
	if tok != "" {
		return tok, nil
	}
	return r.reopenOn(ctx, s, b, primarySide)
}

func (r *Router) reopenOn(ctx context.Context, s *routedSession, b *backend, primarySide bool) (string, error) {
	resp, err := b.client.Open(ctx, s.open)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if primarySide {
		s.primaryTok, s.primaryOn = resp.Session, b
	} else {
		s.replicaTok = resp.Session
	}
	s.mu.Unlock()
	return resp.Session, nil
}

func isUnknownSession(err error) bool {
	var re *server.RemoteError
	return errors.As(err, &re) && re.Code == server.CodeUnknownSession
}

func (r *Router) handleUpdate(w http.ResponseWriter, q *http.Request, retract bool) error {
	var req server.UpdateRequest
	if err := server.Decode(q, &req); err != nil {
		return err
	}
	s, err := r.lookup(req.Session)
	if err != nil {
		return err
	}
	prim := r.currentPrimary()
	resp, err := r.updateOn(q.Context(), s, prim, req.Clauses, retract)
	if err != nil {
		var re *server.RemoteError
		if errors.As(err, &re) && re.Code == server.CodeNotPrimary && re.Primary != "" {
			// Someone else already promoted (another router, an operator):
			// follow the leader and retry once.
			if nb := r.adoptPrimary(re.Primary); nb != nil {
				if resp, err = r.updateOn(q.Context(), s, nb, req.Clauses, retract); err == nil {
					goto acked
				}
			}
		}
		if isTransport(err) {
			// A canceled request (the writer hung up) or a timed-out backend
			// call says nothing about the primary's health — a slow write is
			// not a dead node, and deposing is irreversible. Leave those to
			// the probe loop and surface the error.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			// A hard transport error (refused, reset, EOF) is still only one
			// observation; confirm with a fresh status probe before deposing,
			// matching the probe loop's more-than-one-failure bar.
			if r.primaryConfirmedDead(prim) {
				// The primary is gone mid-write. Fail over for the NEXT
				// writer, but surface the 503 a transport error writes for
				// this one: the write's fate is unknown, and re-sending a
				// possibly-applied write is the client's call.
				r.failover(prim)
				return fmt.Errorf("primary lost mid-write; failing over — retry: %w", err)
			}
		}
		return err
	}
acked:
	r.ackOnReplicas(q.Context(), resp.Seq)
	s.mu.Lock()
	if resp.Epoch > s.lastWriteEpoch {
		s.lastWriteEpoch = resp.Epoch
	}
	s.mu.Unlock()
	r.writesAcked.Add(1)
	return server.WriteJSON(w, http.StatusOK, resp)
}

func (r *Router) updateOn(ctx context.Context, s *routedSession, b *backend, clauses string, retract bool) (*server.UpdateResponse, error) {
	tok, err := r.sessionOn(ctx, s, b, true)
	if err != nil {
		return nil, err
	}
	do := func() (*server.UpdateResponse, error) {
		if retract {
			return b.client.Retract(ctx, tok, clauses)
		}
		return b.client.Assert(ctx, tok, clauses)
	}
	resp, err := do()
	if isUnknownSession(err) {
		if tok, err = r.reopenOn(ctx, s, b, true); err != nil {
			return nil, err
		}
		resp, err = do()
	}
	return resp, err
}

// ackOnReplicas blocks until every healthy replica reports seq applied (the
// semi-synchronous ack). A replica that cannot within AckTimeout is marked
// unhealthy and skipped — the fleet keeps accepting writes at reduced
// redundancy rather than stalling.
func (r *Router) ackOnReplicas(_ context.Context, seq uint64) {
	if seq == 0 {
		return // no-op write, or a primary without a WAL
	}
	// The ack outlives the client's request context on purpose: the write is
	// already durable on the primary, and a client hang-up must not be read
	// as a replica failure.
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.AckTimeout+time.Second)
	defer cancel()
	prim := r.currentPrimary()
	var wg sync.WaitGroup
	for _, b := range r.backends {
		if b == prim || !b.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			deadline := time.Now().Add(r.cfg.AckTimeout)
			for {
				st, err := b.client.ReplStatus(ctx)
				if err == nil {
					b.applied.Store(st.AppliedSeq)
					b.qdepth.Store(st.QueueDepth)
					if st.AppliedSeq >= seq {
						return
					}
				}
				if time.Now().After(deadline) || ctx.Err() != nil {
					r.ackTimeouts.Add(1)
					b.healthy.Store(false)
					r.logf("router: replica %s missed ack for seq %d; marked unhealthy", b.addr, seq)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(b)
	}
	wg.Wait()
}

// primaryConfirmedDead re-probes a primary whose write just failed at the
// transport level: only an independent second failure deposes it. The
// probe deliberately uses a fresh background context — the writer's own
// context may already be canceled, and that must not count as evidence.
func (r *Router) primaryConfirmedDead(prim *backend) bool {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeInterval*4)
	defer cancel()
	_, err := prim.client.ReplStatus(ctx)
	return err != nil
}

// canonicalHostPort reduces a node address to a comparable host:port:
// scheme and path stripped, host lowercased, the loopback spellings
// unified — so "localhost:7070", "127.0.0.1:7070" and
// "http://localhost:7070" all compare equal, and "internal:7070" can never
// match "a.internal:7070".
func canonicalHostPort(addr string) string {
	u, err := url.Parse(server.BaseURL(addr))
	if err != nil || u.Host == "" {
		return addr
	}
	host, port := strings.ToLower(u.Hostname()), u.Port()
	if port == "" {
		port = "80"
	}
	switch host {
	case "", "localhost", "::1":
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// adoptPrimary switches the router's primary pointer to the backend at
// addr (compared as canonical host:port); nil when addr is not a known
// backend.
func (r *Router) adoptPrimary(addr string) *backend {
	want := canonicalHostPort(addr)
	for _, b := range r.backends {
		if canonicalHostPort(b.addr) == want {
			r.primMu.Lock()
			r.primary = b
			r.primMu.Unlock()
			b.healthy.Store(true)
			return b
		}
	}
	return nil
}

// failover promotes the most-caught-up healthy replica to primary. Single-
// flighted; concurrent callers observing the same dead primary collapse
// into one promotion.
func (r *Router) failover(dead *backend) {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	if r.currentPrimary() != dead {
		return // someone already failed over
	}
	dead.healthy.Store(false)
	dead.deposed.Store(true)

	// Pick the survivor with the highest applied seq, preferring healthy
	// ones (an unhealthy replica may still respond — better a laggard
	// primary than none).
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.AckTimeout)
	defer cancel()
	var best *backend
	var bestSeq uint64
	bestHealthy := false
	for _, b := range r.backends {
		if b == dead {
			continue
		}
		st, err := b.client.ReplStatus(ctx)
		if err != nil {
			continue
		}
		b.applied.Store(st.AppliedSeq)
		h := b.healthy.Load()
		if best == nil || (h && !bestHealthy) || (h == bestHealthy && st.AppliedSeq > bestSeq) {
			best, bestSeq, bestHealthy = b, st.AppliedSeq, h
		}
	}
	if best == nil {
		r.logf("router: primary %s lost and no follower is reachable", dead.addr)
		return
	}
	if err := best.client.Promote(ctx); err != nil {
		r.logf("router: promoting %s failed: %v", best.addr, err)
		return
	}
	r.primMu.Lock()
	r.primary = best
	r.primMu.Unlock()
	best.healthy.Store(true)
	r.failovers.Add(1)
	r.logf("router: promoted %s (applied seq %d) after losing %s", best.addr, bestSeq, dead.addr)
	for _, b := range r.backends {
		if b == dead || b == best {
			continue
		}
		if err := b.client.Retarget(ctx, best.addr); err != nil {
			r.logf("router: re-targeting %s to %s failed: %v", b.addr, best.addr, err)
		}
	}
}

func isTransport(err error) bool {
	var re *server.RemoteError
	return err != nil && !errors.As(err, &re)
}

// probeLoop keeps backend health fresh and triggers failover after two
// consecutive failed primary probes.
func (r *Router) probeLoop(ctx context.Context) {
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		prim := r.currentPrimary()
		for _, b := range r.backends {
			pctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeInterval*4)
			st, err := b.client.ReplStatus(pctx)
			ready := err == nil
			if ready {
				b.applied.Store(st.AppliedSeq)
				b.qdepth.Store(st.QueueDepth)
				// A follower that is still syncing serves stale reads; keep
				// it out of pinning and ack quorums until it catches up.
				ready = st.Synced || b == prim
			}
			cancel()
			if ready {
				b.failures.Store(0)
				// Never resurrect a deposed primary via probe; see the
				// package comment on reintegration.
				if !b.deposed.Load() {
					b.healthy.Store(true)
				}
				continue
			}
			if n := b.failures.Add(1); b == prim && n >= 2 {
				r.logf("router: primary %s failed %d probes; failing over", b.addr, n)
				r.failover(b)
			} else if n >= 2 {
				b.healthy.Store(false)
			}
		}
	}
}

func (r *Router) handleStats(w http.ResponseWriter, _ *http.Request) error {
	prim := r.currentPrimary()
	rs := &server.ReplicationStats{
		Role:         "router",
		Primary:      prim.addr,
		WritesAcked:  r.writesAcked.Load(),
		AckTimeouts:  r.ackTimeouts.Load(),
		RYWHolds:     r.rywHolds.Load(),
		RYWForwards:  r.rywForwards.Load(),
		ReadFallback: r.readFallback.Load(),
		Resheds:      r.resheds.Load(),
		Failovers:    r.failovers.Load(),
	}
	for _, b := range r.backends {
		role := "follower"
		if b == prim {
			role = "primary"
		}
		var bands []string
		for band := range b.bands {
			bands = append(bands, band)
		}
		rs.Nodes = append(rs.Nodes, server.NodeReplStats{
			Addr: b.addr, Role: role, Healthy: b.healthy.Load(),
			AppliedSeq: b.applied.Load(), Sessions: b.sessions.Load(),
			QueueDepth: b.qdepth.Load(), Bands: bands,
		})
	}
	r.sessMu.Lock()
	open := len(r.sessions)
	r.sessMu.Unlock()
	return server.WriteJSON(w, http.StatusOK, server.StatsResponse{
		UptimeMS:    time.Since(r.start).Milliseconds(),
		Sessions:    server.SessionStats{Open: open},
		Queries:     server.QueryStats{Served: r.queries.Load(), Errors: r.qErrors.Load(), Truncated: r.qTrunc.Load(), Abandoned: r.tr.Abandoned()},
		Cache:       server.CacheStats{Hits: r.cacheHits.Load()},
		Replication: rs,
	})
}

// Serve runs the router until ctx is done, then drains through the node's
// lifecycle: no new requests, in-flight ones finish, the listener closes.
// The probe loop stops as the drain begins, and Serve returns after it.
func (r *Router) Serve(ctx context.Context, ln net.Listener, drainTimeout time.Duration) error {
	pctx, stopProbes := context.WithCancel(ctx)
	probing := make(chan struct{})
	go func() {
		defer close(probing)
		r.probeLoop(pctx)
	}()
	r.logf("router: primary %s, %d replica(s)", r.cfg.Primary, len(r.cfg.Replicas))
	return r.tr.Serve(ctx, ln, r.Handler(), drainTimeout, server.Lifecycle{Stop: func() {
		stopProbes()
		<-probing
	}})
}
