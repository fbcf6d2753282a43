package sweepd

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"invisifence"
)

// manualClock is the chaos-test Clock: After channels are handed to the
// test to fire explicitly, and Sleep blocks until the test releases it.
// Timeout and backoff schedules become fully deterministic.
type manualClock struct {
	afters chan chan time.Time // every After's channel, in call order
	sleeps chan struct{}       // each receive releases one Sleep
}

func newManualClock() *manualClock {
	return &manualClock{
		afters: make(chan chan time.Time, 16),
		sleeps: make(chan struct{}),
	}
}

func (c *manualClock) Now() time.Time        { return time.Time{} }
func (c *manualClock) Sleep(d time.Duration) { <-c.sleeps }
func (c *manualClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.afters <- ch
	return ch
}

// fire expires the next outstanding After.
func (c *manualClock) fire(t *testing.T) {
	t.Helper()
	select {
	case ch := <-c.afters:
		ch <- time.Time{}
	case <-time.After(10 * time.Second):
		t.Fatal("no outstanding watchdog timer to fire")
	}
}

// TestWatchdogTimesOutWedgedCell wedges a cell forever and fires the
// watchdog on every attempt: the cell — not the campaign's process —
// fails with a deadline error, timeouts and retries are counted, and
// the drain is not blocked by the wedged simulation.
func TestWatchdogTimesOutWedgedCell(t *testing.T) {
	clock := newManualClock()
	release := make(chan struct{})
	t.Cleanup(sync.OnceFunc(func() { close(release) }))
	srv, err := New(Options{
		Workers:        2,
		MaxCellRetries: 1,
		RetryBackoff:   -1, // no backoff: Sleep is never called
		CellTimeout:    time.Second,
		Clock:          clock,
		Run: func(cfg invisifence.Config) (invisifence.Result, error) {
			<-release // wedged
			return fakeResult(cfg), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	spec.Variants, spec.Seeds = []string{"sc"}, []int64{1}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	c, err := srv.Submit(spec, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Both attempts of the wedged cell time out.
	clock.fire(t)
	clock.fire(t)
	waitFinished(t, c)

	st := c.Status()
	if st.State != "failed" || st.Cells.Failed != 1 {
		t.Fatalf("status: %+v", st)
	}
	if st.Retries != 1 {
		t.Fatalf("retries: %+v", st)
	}
	if len(st.Failures) != 1 || !strings.Contains(st.Failures[0].Error, "cell deadline") {
		t.Fatalf("failures: %+v", st.Failures)
	}
	if s := srv.Stats(); s.CellTimeouts != 2 || s.CellRetries != 1 || s.CellsFailed != 1 {
		t.Fatalf("server stats: %+v", s)
	}
	// The wedged goroutine is abandoned, not holding a worker: the drain
	// completes immediately.
	if !srv.ShutdownTimeout(30 * time.Second) {
		t.Fatal("drain blocked by an abandoned cell")
	}
}

// TestLateResultCollectedOnRetry times out an attempt whose simulation
// then finishes in the background: the abandoned goroutine publishes to
// the cache, and the retry answers from it without simulating again.
func TestLateResultCollectedOnRetry(t *testing.T) {
	clock := newManualClock()
	gate := make(chan struct{})
	var runs atomic.Int64
	srv, err := New(Options{
		Workers:        1,
		CacheDir:       t.TempDir(),
		MaxCellRetries: 2,
		CellTimeout:    time.Second,
		Clock:          clock,
		Run: func(cfg invisifence.Config) (invisifence.Result, error) {
			runs.Add(1)
			<-gate
			return fakeResult(cfg), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	spec.Variants, spec.Seeds = []string{"sc"}, []int64{1}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	c, err := srv.Submit(spec, jobs)
	if err != nil {
		t.Fatal(err)
	}
	clock.fire(t) // attempt 0 times out; its simulation keeps running
	close(gate)   // the abandoned simulation finishes and publishes
	// Wait for the background publish and for its flight to end (the
	// publish precedes the release, and a retry joining the live flight
	// would share it instead), then release the retry's backoff.
	key := c.keys[0]
	for {
		var res invisifence.Result
		if ok, _ := srv.cache.Get(key, &res); ok && len(srv.cache.InFlight()) == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	clock.sleeps <- struct{}{} // backoff before attempt 1
	waitFinished(t, c)

	st := c.Status()
	if st.State != "done" || st.Cells.Cached != 1 {
		t.Fatalf("status: %+v", st)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("%d simulations, want 1 (retry must answer from cache)", n)
	}
	if s := srv.Stats(); s.CellTimeouts != 1 || s.CellRetries != 1 || s.CellsCached != 1 {
		t.Fatalf("server stats: %+v", s)
	}
	srv.Shutdown()
}

// TestTransientFailureRetriedToSuccess fails a cell's first attempt and
// lets the second succeed: the campaign completes, with the retry
// visible in status and telemetry.
func TestTransientFailureRetriedToSuccess(t *testing.T) {
	var attempts atomic.Int64
	srv, err := New(Options{
		Workers:        2,
		MaxCellRetries: 2,
		RetryBackoff:   -1,
		Run: func(cfg invisifence.Config) (invisifence.Result, error) {
			if attempts.Add(1) == 1 {
				return invisifence.Result{}, fmt.Errorf("transient: simulated EAGAIN")
			}
			return fakeResult(cfg), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	spec := tinySpec()
	spec.Variants, spec.Seeds = []string{"sc"}, []int64{1}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	c, err := srv.Submit(spec, jobs)
	if err != nil {
		t.Fatal(err)
	}
	waitFinished(t, c)
	st := c.Status()
	if st.State != "done" || st.Cells.Simulated != 1 || st.Retries != 1 {
		t.Fatalf("status: %+v", st)
	}
	if s := srv.Stats(); s.CellRetries != 1 || s.CellTimeouts != 0 {
		t.Fatalf("server stats: %+v", s)
	}
}

// TestBackoffSchedule pins the capped exponential: base, 2x, 4x, 8x,
// then flat at 8x.
func TestBackoffSchedule(t *testing.T) {
	s := &Server{opts: Options{RetryBackoff: 10 * time.Millisecond}}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for k, w := range want {
		if got := s.backoff(k + 1); got != w*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want %v", k+1, got, w*time.Millisecond)
		}
	}
	if got := (&Server{opts: Options{RetryBackoff: -1}}).backoff(3); got != 0 {
		t.Fatalf("negative base backoff = %v", got)
	}
}

// waitFinished blocks until every cell of the campaign is terminal.
func waitFinished(t *testing.T, c *Campaign) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for !c.Finished() {
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s never finished: %+v", c.ID(), c.Status())
		}
		time.Sleep(time.Millisecond)
	}
}
