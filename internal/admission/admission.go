// Package admission implements adaptive overload protection for the
// multilogd serving path: a cost-aware admission controller in front of
// query and write handling.
//
// Requests arrive with a priority tier and an estimated cost (a cached
// read is nearly free, a compiled prepared query is cheap, a full
// reduction build is expensive). Health and replication traffic bypasses
// the limiter entirely — the fleet's control plane must never starve
// behind data-plane load. Everything else is admitted against an AIMD
// concurrency limit: admitted work succeeds → the limit creeps up
// additively; admitted work degrades (governor abort, deadline, latency
// collapse) → the limit is cut multiplicatively. Requests that do not fit
// wait in per-priority FIFO queues (reads ahead of writes ahead of
// prepares) and are shed CoDel-style: once the queue's sojourn time stays
// above Target for a full Interval the controller flips into shedding and
// rejects new arrivals immediately with a typed *OverloadError carrying a
// computed Retry-After, instead of letting the queue grow into a latency
// cliff. A waiter whose context deadline cannot be met given the current
// backlog is rejected up front rather than parked to time out.
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
	// MaxInflight is the AIMD ceiling, in cost units. 0 means 64.
	MaxInflight int
	// MinInflight is the AIMD floor, in cost units. 0 means 4.
	MinInflight int
	// Target is the CoDel sojourn-time target: queue delay the controller
	// tolerates indefinitely. 0 means 20ms.
	Target time.Duration
	// Interval is the CoDel control interval: sojourn must stay above
	// Target for this long before shedding starts, and multiplicative
	// decreases are rate-limited to one per Interval. 0 means 200ms.
	Interval time.Duration
	// MaxQueue bounds the number of queued waiters across all priorities.
	// 0 means 4 × MaxInflight.
	MaxQueue int
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.MinInflight <= 0 {
		c.MinInflight = 4
	}
	if c.MinInflight > c.MaxInflight {
		c.MinInflight = c.MaxInflight
	}
	if c.Target <= 0 {
		c.Target = 20 * time.Millisecond
	}
	if c.Interval <= 0 {
		c.Interval = 200 * time.Millisecond
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInflight
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
	// Limit is the current AIMD concurrency limit, in cost units.
	Limit float64
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
	// Shedding reports whether the controller is currently in the
	// CoDel shedding state.
	Shedding bool
	// LimitDecreases counts multiplicative decreases since start.
	LimitDecreases int64
}

// waiter is one parked request.
type waiter struct {
	ch   chan struct{} // closed/sent on grant
	pri  Priority
	cost int
	enq  time.Time
	elem *list.Element // nil once dequeued (granted or canceled)
}

// Controller is the admission controller. The zero value is not usable;
// construct with New.
type Controller struct {
	cfg Config

	mu         sync.Mutex
	limit      float64
	inflight   int // cost units executing
	running    int // tickets executing
	queues     [numGated]*list.List
	queued     int // waiters across queues
	queuedCost int // cost units across queues

	shedding   bool
	aboveSince time.Time     // first moment sojourn exceeded Target (zero = below)
	lastCut    time.Time     // last multiplicative decrease
	ewma       time.Duration // EWMA of admitted service latency

	admitted  int64
	bypassed  int64
	shed      [int(numPriorities)]int64
	decreases int64
}

// New builds a Controller from cfg.
func New(cfg Config) *Controller {
	c := &Controller{cfg: cfg.withDefaults()}
	c.limit = float64(c.cfg.MaxInflight)
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
// admitted immediately. Gated priorities are admitted when the AIMD limit
// has room, parked in a per-priority FIFO otherwise, and rejected with a
// typed *OverloadError when the controller is shedding, the queue is
// full, or the context deadline cannot be met given the backlog. A nil
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
	// prepare must not starve behind an AIMD limit cut below its cost.
	if c.queued == 0 && (float64(c.inflight+cost) <= c.limit || c.inflight == 0) {
		// Headroom with no backlog: any shedding episode is over.
		c.shedding = false
		c.aboveSince = time.Time{}
		c.inflight += cost
		c.running++
		c.admitted++
		c.mu.Unlock()
		return &Ticket{c: c, pri: pri, cost: cost}, nil
	}
	if c.shedding || c.queued >= c.cfg.MaxQueue || c.hopelessLocked(ctx, cost) {
		return nil, c.rejectLocked(pri) // unlocks
	}
	w := &waiter{ch: make(chan struct{}, 1), pri: pri, cost: cost, enq: time.Now()}
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
		c.release(cost)
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
	ra := time.Duration(backlog / c.limit * float64(est))
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
	wait := time.Duration(float64(c.queuedCost+cost) / c.limit * float64(est))
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

// dispatchLocked grants queued waiters while the limit has room, feeding
// each grant's sojourn time into the CoDel state. Caller holds mu.
func (c *Controller) dispatchLocked(now time.Time) {
	for {
		w := c.headLocked()
		if w == nil {
			// Queue drained; a shedding episode ends only once an arrival
			// or a dequeue observes genuine headroom, not merely because
			// the backlog was granted into a still-saturated limit.
			return
		}
		if float64(c.inflight+w.cost) > c.limit && c.inflight > 0 {
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
		c.observeSojournLocked(now, now.Sub(w.enq))
		w.ch <- struct{}{}
	}
}

// observeSojournLocked updates the CoDel state with one dequeued
// waiter's queue delay: persistently above Target for Interval flips the
// controller into shedding; one dip below Target clears it.
func (c *Controller) observeSojournLocked(now time.Time, sojourn time.Duration) {
	if sojourn <= c.cfg.Target {
		c.aboveSince = time.Time{}
		c.shedding = false
		return
	}
	if c.aboveSince.IsZero() {
		c.aboveSince = now
		return
	}
	if now.Sub(c.aboveSince) >= c.cfg.Interval {
		c.shedding = true
	}
}

// release returns cost units to the pool and redrains the queue.
func (c *Controller) release(cost int) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight -= cost
	if c.inflight < 0 {
		c.inflight = 0
	}
	if c.running > 0 {
		c.running--
	}
	c.dispatchLocked(now)
}

// Done reports the admitted work's outcome: its service latency and
// whether it degraded (governor abort, deadline exceeded, latency
// collapse). Degraded work cuts the AIMD limit multiplicatively (at most
// once per Interval); healthy work grows it additively. Safe on a nil
// ticket and idempotent.
func (t *Ticket) Done(latency time.Duration, degraded bool) {
	if t == nil || t.c == nil {
		return
	}
	t.once.Do(func() {
		if t.pri.Bypass() {
			return
		}
		c := t.c
		now := time.Now()
		c.mu.Lock()
		if latency > 0 {
			if c.ewma == 0 {
				c.ewma = latency
			} else {
				c.ewma = (7*c.ewma + latency) / 8
			}
		}
		if degraded {
			if now.Sub(c.lastCut) >= c.cfg.Interval {
				c.limit *= 0.7
				if c.limit < float64(c.cfg.MinInflight) {
					c.limit = float64(c.cfg.MinInflight)
				}
				c.lastCut = now
				c.decreases++
			}
		} else {
			c.limit += 1.0 / c.limit
			if c.limit > float64(c.cfg.MaxInflight) {
				c.limit = float64(c.cfg.MaxInflight)
			}
		}
		c.inflight -= t.cost
		if c.inflight < 0 {
			c.inflight = 0
		}
		if c.running > 0 {
			c.running--
		}
		c.dispatchLocked(now)
		c.mu.Unlock()
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

// Shedding reports whether the controller is currently shedding — the
// server's signal to prefer bounded-staleness brownout reads over
// rejections. A nil Controller never sheds.
func (c *Controller) Shedding() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shedding
}

// Snapshot returns current counters. A nil Controller returns zeros.
func (c *Controller) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Limit:          c.limit,
		Inflight:       c.inflight,
		Running:        c.running,
		Queued:         c.queued,
		Admitted:       c.admitted,
		Bypassed:       c.bypassed,
		Shedding:       c.shedding,
		LimitDecreases: c.decreases,
		ShedByPriority: c.shed,
	}
	for _, n := range c.shed {
		st.Shed += n
	}
	return st
}
