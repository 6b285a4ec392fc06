// Package admission implements overload protection for the multilogd
// serving path: a cost-aware admission controller in front of query and
// write handling.
//
// Requests arrive with a priority tier and an estimated cost (a compiled
// prepared query is cheap, a write dearer, a full reduction build the
// dearest; a cached read is answered before it asks). Health and
// replication traffic bypasses the limiter entirely — the fleet's control
// plane must never starve behind data-plane load. Everything else is
// admitted while its cost fits under a fixed concurrency limit
// (Config.MaxInflight). Requests that do not fit wait in per-priority FIFO
// queues (reads ahead of writes ahead of prepares). A request is shed —
// rejected at once with a typed *OverloadError carrying a computed
// Retry-After — when the queue is full (4 × the limit), or when its context
// deadline cannot be met given the backlog, rather than parked to time out.
//
// There is no queue-delay shedding state: a CoDel-style one (shed every
// arrival once the queue's sojourn time stayed above a target for an
// interval) measured worse on the miss storm than the queue bound and the
// deadline check alone (EXPERIMENTS.md P27).
//
// The limit does not adapt: an AIMD loop cutting it on degraded work
// measured no better on the miss storm that gates admission (EXPERIMENTS.md
// P27), and its limit was state that work at every clearance could move.
package admission

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"
)

// Priority orders request classes; lower values are more important.
// Health and Replication bypass the concurrency limit entirely and are
// never queued or shed. Read, Write and Prepare are gated, and the queue
// drains in that order.
type Priority int

const (
	// Health is liveness/readiness and stats traffic.
	Health Priority = iota
	// Replication is WAL streaming, snapshots and replication status.
	Replication
	// Read is a query whose reduction is already compiled.
	Read
	// Write is an assert/retract.
	Write
	// Prepare is a query that must first build a reduction — the most
	// expensive class, and the first to wait.
	Prepare
	numPriorities
)

// numGated is the count of priorities that go through the limiter.
const numGated = int(numPriorities - Read)

func (p Priority) String() string {
	switch p {
	case Health:
		return "health"
	case Replication:
		return "replication"
	case Read:
		return "read"
	case Write:
		return "write"
	case Prepare:
		return "prepare"
	}
	return fmt.Sprintf("priority(%d)", int(p))
}

// Bypass reports whether the priority skips the concurrency limit.
func (p Priority) Bypass() bool { return p <= Replication }

// Config tunes a Controller. The zero value picks serving defaults.
type Config struct {
	// MaxInflight is the concurrency limit, in cost units. 0 means 64.
	MaxInflight int

	// maxQueue bounds the number of queued waiters across all priorities:
	// 4 × MaxInflight. Fixed for serving; only this package's tests set it.
	maxQueue int
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.maxQueue <= 0 {
		c.maxQueue = 4 * c.MaxInflight
	}
	return c
}

// OverloadError is the typed rejection: the controller shed the request.
// Servers map it to HTTP 429 with the computed Retry-After.
type OverloadError struct {
	// Priority is the rejected request's class.
	Priority Priority
	// Queued is the backlog (waiter count) at rejection time.
	Queued int
	// RetryAfter is the controller's estimate of when capacity frees up,
	// clamped to [1s, 30s].
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("admission: %s request shed under overload (%d queued; retry after %s)",
		e.Priority, e.Queued, e.RetryAfter)
}

// Stats is a point-in-time snapshot of the controller.
type Stats struct {
	// Limit is the concurrency limit, in cost units.
	Limit int
	// Inflight is the admitted cost currently executing.
	Inflight int
	// Running is the number of admitted tickets currently executing.
	Running int
	// Queued is the number of waiters parked in the FIFO queues.
	Queued int
	// Admitted counts gated requests admitted since start.
	Admitted int64
	// Bypassed counts health/replication requests waved through.
	Bypassed int64
	// Shed counts gated requests rejected.
	Shed int64
	// ShedByPriority breaks Shed down per priority (indexed by Priority).
	ShedByPriority [int(numPriorities)]int64
}

// waiter is one parked request.
type waiter struct {
	ch   chan struct{} // closed/sent on grant
	pri  Priority
	cost int
	elem *list.Element // nil once dequeued (granted or canceled)
}

// Controller is the admission controller. The zero value is not usable;
// construct with New.
type Controller struct {
	cfg Config

	mu         sync.Mutex
	inflight   int // cost units executing
	running    int // tickets executing
	queues     [numGated]*list.List
	queued     int // waiters across queues
	queuedCost int // cost units across queues

	ewma time.Duration // EWMA of admitted service latency

	admitted int64
	bypassed int64
	shed     [int(numPriorities)]int64
}

// New builds a Controller from cfg.
func New(cfg Config) *Controller {
	c := &Controller{cfg: cfg.withDefaults()}
	for i := range c.queues {
		c.queues[i] = list.New()
	}
	return c
}

// Ticket is an admitted request's grant. Done must be called exactly once
// when the work finishes (extra calls are no-ops).
type Ticket struct {
	c    *Controller
	pri  Priority
	cost int
	once sync.Once
}

// Admit asks to run a request of the given priority and estimated cost
// (cost units; < 1 is clamped to 1). Health and Replication are always
// admitted immediately. Gated priorities are admitted when the limit has
// room, parked in a per-priority FIFO otherwise, and rejected with a
// typed *OverloadError when the queue is full or the context deadline
// cannot be met given the backlog. A nil
// Controller admits everything (admission disabled).
func (c *Controller) Admit(ctx context.Context, pri Priority, cost int) (*Ticket, error) {
	if c == nil {
		return nil, nil
	}
	if cost < 1 {
		cost = 1
	}
	c.mu.Lock()
	if pri.Bypass() {
		c.bypassed++
		c.mu.Unlock()
		return &Ticket{c: c, pri: pri}, nil
	}
	// A request whose cost exceeds the whole limit still runs when the
	// controller is idle: one oversized request at a time beats never — a
	// prepare must not starve behind a limit below its cost.
	if c.queued == 0 && (c.inflight+cost <= c.cfg.MaxInflight || c.inflight == 0) {
		c.inflight += cost
		c.running++
		c.admitted++
		c.mu.Unlock()
		return &Ticket{c: c, pri: pri, cost: cost}, nil
	}
	if c.queued >= c.cfg.maxQueue || c.hopelessLocked(ctx, cost) {
		return nil, c.rejectLocked(pri) // unlocks
	}
	w := &waiter{ch: make(chan struct{}, 1), pri: pri, cost: cost}
	w.elem = c.queues[int(pri-Read)].PushBack(w)
	c.queued++
	c.queuedCost += cost
	c.mu.Unlock()

	select {
	case <-w.ch:
		return &Ticket{c: c, pri: pri, cost: cost}, nil
	case <-ctx.Done():
		c.mu.Lock()
		if w.elem != nil {
			c.queues[int(pri-Read)].Remove(w.elem)
			w.elem = nil
			c.queued--
			c.queuedCost -= cost
			c.mu.Unlock()
			return nil, ctx.Err()
		}
		c.mu.Unlock()
		// The grant raced the cancellation: take it back.
		<-w.ch
		c.release(cost, 0)
		return nil, ctx.Err()
	}
}

// rejectLocked counts a shed, computes Retry-After and returns the typed
// error. The caller must hold mu; rejectLocked releases it.
func (c *Controller) rejectLocked(pri Priority) error {
	c.shed[int(pri)]++
	err := &OverloadError{Priority: pri, Queued: c.queued, RetryAfter: c.retryAfterLocked()}
	c.mu.Unlock()
	return err
}

// retryAfterLocked estimates when the current backlog drains: backlog
// cost over the concurrency limit, times the EWMA service latency,
// clamped to [1s, 30s] so clients neither hammer nor give up.
func (c *Controller) retryAfterLocked() time.Duration {
	est := c.ewma
	if est <= 0 {
		est = 50 * time.Millisecond
	}
	backlog := float64(c.inflight + c.queuedCost)
	ra := time.Duration(backlog / float64(c.cfg.MaxInflight) * float64(est))
	if ra < time.Second {
		ra = time.Second
	}
	if ra > 30*time.Second {
		ra = 30 * time.Second
	}
	return ra
}

// hopelessLocked reports whether a request with the given cost cannot
// meet its context deadline even if the backlog drains at the estimated
// service rate — parking it would only convert a fast rejection into a
// slow timeout.
func (c *Controller) hopelessLocked(ctx context.Context, cost int) bool {
	deadline, ok := ctx.Deadline()
	if !ok {
		return false
	}
	est := c.ewma
	if est <= 0 {
		est = 50 * time.Millisecond
	}
	wait := time.Duration(float64(c.queuedCost+cost) / float64(c.cfg.MaxInflight) * float64(est))
	return time.Until(deadline) < wait
}

// headLocked returns the next waiter in priority order, nil when empty.
func (c *Controller) headLocked() *waiter {
	for i := range c.queues {
		if e := c.queues[i].Front(); e != nil {
			return e.Value.(*waiter)
		}
	}
	return nil
}

// dispatchLocked grants queued waiters while the limit has room. Caller
// holds mu.
func (c *Controller) dispatchLocked() {
	for {
		w := c.headLocked()
		if w == nil {
			return
		}
		if c.inflight+w.cost > c.cfg.MaxInflight && c.inflight > 0 {
			// No room — except an oversized waiter at an idle limiter runs
			// anyway (see Admit): it would otherwise starve forever.
			return
		}
		c.queues[int(w.pri-Read)].Remove(w.elem)
		w.elem = nil
		c.queued--
		c.queuedCost -= w.cost
		c.inflight += w.cost
		c.running++
		c.admitted++
		w.ch <- struct{}{}
	}
}

// release returns cost units to the pool, folds a positive service
// latency into the EWMA and redrains the queue.
func (c *Controller) release(cost int, latency time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if latency > 0 {
		if c.ewma == 0 {
			c.ewma = latency
		} else {
			c.ewma = (7*c.ewma + latency) / 8
		}
	}
	c.inflight -= cost
	if c.inflight < 0 {
		c.inflight = 0
	}
	if c.running > 0 {
		c.running--
	}
	c.dispatchLocked()
}

// Done reports that the admitted work finished, with its service latency,
// which paces Retry-After and the deadline check. The second argument,
// whether the work degraded, is ignored; it stays for the benchmark's
// frozen mirror of the serving path, which passes it. Safe on a nil ticket
// and idempotent.
func (t *Ticket) Done(latency time.Duration, _ bool) {
	if t == nil || t.c == nil {
		return
	}
	t.once.Do(func() {
		if !t.pri.Bypass() {
			t.c.release(t.cost, latency)
		}
	})
}

// QueueDepth is the controller's load signal for replica routing: queued
// waiters plus running tickets. A nil Controller reports 0.
func (c *Controller) QueueDepth() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queued + c.running
}

// Snapshot returns current counters. A nil Controller returns zeros.
func (c *Controller) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Limit:          c.cfg.MaxInflight,
		Inflight:       c.inflight,
		Running:        c.running,
		Queued:         c.queued,
		Admitted:       c.admitted,
		Bypassed:       c.bypassed,
		ShedByPriority: c.shed,
	}
	for _, n := range c.shed {
		st.Shed += n
	}
	return st
}
