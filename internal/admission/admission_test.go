package admission

import (
	"context"
	"errors"
	"testing"
	"time"
)

// admit is a test helper that fails the test on rejection.
func admit(t *testing.T, c *Controller, pri Priority, cost int) *Ticket {
	t.Helper()
	tk, err := c.Admit(context.Background(), pri, cost)
	if err != nil {
		t.Fatalf("Admit(%s, %d): %v", pri, cost, err)
	}
	return tk
}

func TestAdmitReleaseFIFO(t *testing.T) {
	c := New(Config{MaxInflight: 2})
	t1 := admit(t, c, Read, 1)
	t2 := admit(t, c, Read, 1)

	granted := make(chan int, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			tk, err := c.Admit(context.Background(), Read, 1)
			if err != nil {
				t.Errorf("queued admit %d: %v", i, err)
				return
			}
			granted <- i
			tk.Done(time.Millisecond, false)
		}()
	}
	// Let both goroutines park.
	deadline := time.Now().Add(2 * time.Second)
	for c.Snapshot().Queued < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never queued: %+v", c.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	t1.Done(time.Millisecond, false)
	t2.Done(time.Millisecond, false)
	<-granted
	<-granted
	st := c.Snapshot()
	if st.Admitted != 4 || st.Queued != 0 {
		t.Fatalf("counters after drain: %+v", st)
	}
}

// TestPriorityOrder proves the queue drains reads before writes before
// prepares regardless of arrival order.
func TestPriorityOrder(t *testing.T) {
	c := New(Config{MaxInflight: 1})
	hold := admit(t, c, Read, 1)

	order := make(chan Priority, 3)
	// Worst-first arrival order.
	prios := []Priority{Prepare, Write, Read}
	queued := 0
	for _, p := range prios {
		go func(p Priority) {
			tk, err := c.Admit(context.Background(), p, 1)
			if err != nil {
				t.Errorf("admit %s: %v", p, err)
				return
			}
			order <- p
			tk.Done(time.Millisecond, false)
		}(p)
		queued++
		deadline := time.Now().Add(2 * time.Second)
		for c.Snapshot().Queued < queued {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %s never queued", p)
			}
			time.Sleep(time.Millisecond)
		}
	}
	hold.Done(time.Millisecond, false)
	want := []Priority{Read, Write, Prepare}
	for i, w := range want {
		if got := <-order; got != w {
			t.Fatalf("grant %d: got %s, want %s", i, got, w)
		}
	}
}

// fullController builds a controller of capacity 1 whose queue of one is
// full: a held ticket and one parked waiter. It returns the controller
// with the ticket still held; releasing it grants the waiter, which then
// holds its ticket for good.
func fullController(t *testing.T) (*Controller, *Ticket) {
	t.Helper()
	c := New(Config{MaxInflight: 1, maxQueue: 1})
	hold := admit(t, c, Read, 1)
	go c.Admit(context.Background(), Read, 1) //nolint:errcheck // parked until hold is released
	deadline := time.Now().Add(2 * time.Second)
	for c.Snapshot().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never queued: %+v", c.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	return c, hold
}

// TestPriorityNeverShed is the admission-priority table: with the
// controller saturated and its queue full, health and replication
// requests are always admitted; every gated priority is shed, with a
// Retry-After in [1s, 30s].
func TestPriorityNeverShed(t *testing.T) {
	cases := []struct {
		pri  Priority
		shed bool
	}{
		{Health, false},
		{Replication, false},
		{Read, true},
		{Write, true},
		{Prepare, true},
	}
	for _, tc := range cases {
		t.Run(tc.pri.String(), func(t *testing.T) {
			c, held := fullController(t)
			defer held.Done(time.Millisecond, false)

			tk, err := c.Admit(context.Background(), tc.pri, 1)
			if tc.shed {
				var oe *OverloadError
				if !errors.As(err, &oe) {
					t.Fatalf("%s under overload: got err %v, want *OverloadError", tc.pri, err)
				}
				if oe.Priority != tc.pri || oe.RetryAfter < time.Second || oe.RetryAfter > 30*time.Second {
					t.Fatalf("shed %s: %+v, want its priority and a RetryAfter in [1s, 30s]", tc.pri, oe)
				}
				return
			}
			if err != nil {
				t.Fatalf("%s was shed under overload: %v", tc.pri, err)
			}
			tk.Done(time.Millisecond, false)
			if got := c.Snapshot().Bypassed; got != 1 {
				t.Fatalf("bypassed = %d, want 1", got)
			}
		})
	}
}

// TestDeadlineReject: a waiter whose deadline cannot be met given the
// backlog is rejected immediately instead of parked to time out.
func TestDeadlineReject(t *testing.T) {
	c := New(Config{MaxInflight: 1})
	// Teach the controller that service takes ~200ms.
	tk := admit(t, c, Read, 1)
	tk.Done(200*time.Millisecond, false)

	hold := admit(t, c, Read, 1)
	defer hold.Done(time.Millisecond, false)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Admit(ctx, Read, 1)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("hopeless deadline: got %v, want *OverloadError", err)
	}
	if waited := time.Since(start); waited > 5*time.Millisecond {
		t.Fatalf("hopeless request was parked for %s before rejection", waited)
	}
}

func TestContextCancelWhileQueued(t *testing.T) {
	c := New(Config{MaxInflight: 1})
	hold := admit(t, c, Read, 1)
	defer hold.Done(time.Millisecond, false)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Admit(ctx, Write, 1)
		errCh <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for c.Snapshot().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: got %v, want context.Canceled", err)
	}
	if st := c.Snapshot(); st.Queued != 0 {
		t.Fatalf("canceled waiter left in queue: %+v", st)
	}
}

func TestQueueFull(t *testing.T) {
	c := New(Config{MaxInflight: 1, maxQueue: 1})
	hold := admit(t, c, Read, 1)
	defer hold.Done(time.Millisecond, false)

	go c.Admit(context.Background(), Read, 1) //nolint:errcheck // parked forever; released via hold's defer
	deadline := time.Now().Add(2 * time.Second)
	for c.Snapshot().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := c.Admit(context.Background(), Read, 1)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("full queue: got %v, want *OverloadError", err)
	}
	if st := c.Snapshot(); st.Shed != 1 || st.ShedByPriority[Read] != 1 {
		t.Fatalf("shed counters: %+v", st)
	}
}

func TestQueueDepthAndSnapshot(t *testing.T) {
	c := New(Config{MaxInflight: 2})
	if c.QueueDepth() != 0 {
		t.Fatalf("idle queue depth %d", c.QueueDepth())
	}
	t1 := admit(t, c, Read, 1)
	t2 := admit(t, c, Write, 1)
	go c.Admit(context.Background(), Read, 1) //nolint:errcheck // drained below
	deadline := time.Now().Add(2 * time.Second)
	for c.Snapshot().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if got := c.QueueDepth(); got != 3 {
		t.Fatalf("queue depth = %d, want 3 (2 running + 1 queued)", got)
	}
	st := c.Snapshot()
	if st.Running != 2 || st.Inflight != 2 || st.Queued != 1 {
		t.Fatalf("snapshot: %+v", st)
	}
	t1.Done(time.Millisecond, false)
	t2.Done(time.Millisecond, false)
}

// TestNilController: a nil controller is "admission off" — everything is
// admitted, nothing panics.
func TestNilController(t *testing.T) {
	var c *Controller
	tk, err := c.Admit(context.Background(), Prepare, 99)
	if err != nil || tk != nil {
		t.Fatalf("nil controller Admit: %v, %v", tk, err)
	}
	tk.Done(time.Second, true) // nil ticket: no-op
	if c.QueueDepth() != 0 {
		t.Fatalf("nil controller reports load")
	}
	if st := c.Snapshot(); st.Admitted != 0 {
		t.Fatalf("nil controller snapshot: %+v", st)
	}
}

// TestTicketDoneIdempotent: double Done must not double-release.
func TestTicketDoneIdempotent(t *testing.T) {
	c := New(Config{MaxInflight: 2})
	tk := admit(t, c, Read, 2)
	tk.Done(time.Millisecond, false)
	tk.Done(time.Millisecond, false)
	if st := c.Snapshot(); st.Inflight != 0 || st.Running != 0 {
		t.Fatalf("double Done corrupted accounting: %+v", st)
	}
}

// TestOversizedCostNeverStarves proves the idle-admit rule: a request
// whose cost exceeds the whole concurrency limit (a prepare, cost 16, under
// -max-inflight 4) is admitted when the controller is idle, and a
// queued oversized waiter is granted once the limiter drains — it must
// never park forever behind a limit it can't fit under.
func TestOversizedCostNeverStarves(t *testing.T) {
	c := New(Config{MaxInflight: 4})

	// Idle controller: the oversized request runs immediately.
	t1, err := c.Admit(context.Background(), Prepare, 16)
	if err != nil {
		t.Fatalf("idle oversized admit: %v", err)
	}

	// A second oversized request must queue (the limiter is saturated)...
	granted := make(chan error, 1)
	go func() {
		t2, err := c.Admit(context.Background(), Prepare, 16)
		if err == nil {
			t2.Done(time.Millisecond, false)
		}
		granted <- err
	}()
	select {
	case err := <-granted:
		t.Fatalf("second oversized admit did not queue (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}

	// ...and be granted as soon as the first completes, despite cost 16
	// still exceeding the limit.
	t1.Done(time.Millisecond, false)
	select {
	case err := <-granted:
		if err != nil {
			t.Fatalf("queued oversized waiter rejected: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued oversized waiter starved behind a limit below its cost")
	}
}
