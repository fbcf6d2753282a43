package runcache

import (
	"fmt"
	"sort"
	"sync"

	"invisifence/internal/faultinject"
)

// SiteLeader fires in the flight leader just before it resolves its key
// (panic = a poisoned computation, delay = a slow leader stalling its
// followers) when an injector is armed.
const SiteLeader = "flight.leader"

// FlightStats counts single-flight traffic since Open.
type FlightStats struct {
	// Leaders counts Resolve calls that led a flight: they checked the
	// cache and, on a miss, ran their function.
	Leaders uint64
	// Followers counts Resolve calls that waited on a leader's in-flight
	// resolution instead of running their own: the work deduplicated.
	Followers uint64
	// Panics counts leader functions that panicked (converted to errors
	// for every waiter; see Resolve).
	Panics uint64
}

// String renders the stats for CLI/telemetry output.
func (s FlightStats) String() string {
	return fmt.Sprintf("flight: %d leaders, %d followers, %d panics",
		s.Leaders, s.Followers, s.Panics)
}

// PanicError is the error every caller of Resolve receives when the
// leader's function panicked.
type PanicError struct {
	// Key is the flight key whose leader panicked.
	Key string
	// Value is the recovered panic value.
	Value any
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runcache: in-flight computation for %.12s… panicked: %v", e.Key, e.Value)
}

// Origin reports how Resolve produced a value.
type Origin int

const (
	Computed Origin = iota // led the flight, missed the cache, ran fn and published
	Cached                 // led the flight and found the value in the cache
	Shared                 // joined another caller's flight and shares its outcome
)

// Resolve returns the value stored under key, computing it with fn at
// most once across all concurrent callers of the same key on c.
//
// The rule is flight first: the caller joins the key's flight, and only
// the leader consults the cache. On a miss the leader runs fn and Puts
// the result (best-effort) before the flight releases its followers. No
// cache check happens outside the flight, so a call that arrives after
// a partner flight published and ended leads a new flight and finds the
// published value instead of computing it again.
//
// An error from fn is shared with the followers and nothing is Put. A
// panic in fn is recovered, counted in FlightStats.Panics, and delivered
// to the leader and every follower as a *PanicError, so one poisoned
// computation cannot take down unrelated waiters or the process.
func Resolve[T any](c *Cache, key string, fn func() (T, error)) (T, Origin, error) {
	origin := Computed
	v, shared, err := c.flight.do(key, func() (any, error) {
		var hit T
		if ok, _ := c.Get(key, &hit); ok {
			origin = Cached
			return hit, nil
		}
		v, err := fn()
		if err != nil {
			return nil, err
		}
		_ = c.Put(key, v)
		return v, nil
	})
	if shared {
		origin = Shared
	}
	t, _ := v.(T) // v is nil on error: return the zero T
	return t, origin, err
}

// call is one in-flight computation.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// flight deduplicates concurrent computations of the same key: while one
// caller (the leader) runs the function, every other caller of the same
// key (the followers) blocks until the leader finishes and then shares
// its value and error. Every Cache owns one, for Resolve. The zero
// flight is ready to use.
type flight struct {
	inj *faultinject.Injector

	mu       sync.Mutex
	inflight map[string]*call
	counts   FlightStats
}

// do returns the result of computing fn for key, executing it at most
// once across all concurrent callers of the same key; shared reports a
// follower. A panic in fn becomes a *PanicError for every caller.
func (f *flight) do(key string, fn func() (any, error)) (v any, shared bool, err error) {
	f.mu.Lock()
	if f.inflight == nil {
		f.inflight = make(map[string]*call)
	}
	if c, ok := f.inflight[key]; ok {
		f.counts.Followers++
		f.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &call{done: make(chan struct{})}
	f.inflight[key] = c
	f.counts.Leaders++
	f.mu.Unlock()

	func() {
		defer func() {
			if p := recover(); p != nil {
				c.err = &PanicError{Key: key, Value: p}
				f.mu.Lock()
				f.counts.Panics++
				f.mu.Unlock()
			}
		}()
		// Inside the recovery window: an injected leader panic takes the
		// exact path an organic one would.
		f.inj.Delay(SiteLeader)
		f.inj.MaybePanic(SiteLeader)
		c.val, c.err = fn()
	}()

	f.mu.Lock()
	delete(f.inflight, key)
	f.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}

// keys returns the keys currently in flight, sorted.
func (f *flight) keys() []string {
	f.mu.Lock()
	keys := make([]string, 0, len(f.inflight))
	for k := range f.inflight {
		keys = append(keys, k)
	}
	f.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// stats returns a snapshot of the traffic counters.
func (f *flight) stats() FlightStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}
