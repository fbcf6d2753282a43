package runcache

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"invisifence/internal/faultinject"
)

// TestFlightDedupesConcurrentCallers: N concurrent Resolve calls of one
// key make one fn call and one Put, with 1 Computed and N−1 Shared.
func TestFlightDedupesConcurrentCallers(t *testing.T) {
	c, _ := Open("")
	var execs atomic.Int64
	gate := make(chan struct{})
	const callers = 16

	var wg sync.WaitGroup
	origins := make([]Origin, callers)
	for i := range origins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, origin, err := Resolve(c, "k", func() (int, error) {
				<-gate // hold the flight open until all callers joined
				execs.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Resolve: %v, %v", v, err)
			}
			origins[i] = origin
		}()
	}
	// Wait until the late callers are registered as followers, then
	// release the leader.
	for c.FlightStats().Followers < callers-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Fatalf("%d executions for %d concurrent callers", n, callers)
	}
	count := map[Origin]int{}
	for _, o := range origins {
		count[o]++
	}
	if count[Computed] != 1 || count[Shared] != callers-1 {
		t.Fatalf("origins: %v (want 1 computed, %d shared)", count, callers-1)
	}
	if s := c.FlightStats(); s.Leaders != 1 || s.Followers != callers-1 || s.Panics != 0 {
		t.Fatalf("stats: %+v", s)
	}
	if s := c.Stats(); s.Puts != 1 {
		t.Fatalf("cache stats: %+v (want 1 put)", s)
	}
}

func TestFlightDistinctKeysIndependent(t *testing.T) {
	var f flight
	var execs atomic.Int64
	var wg sync.WaitGroup
	for _, k := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, shared, err := f.do(k, func() (any, error) {
				execs.Add(1)
				return k, nil
			}); shared || err != nil {
				t.Errorf("key %s: shared=%v err=%v", k, shared, err)
			}
		}()
	}
	wg.Wait()
	if execs.Load() != 3 {
		t.Fatalf("distinct keys collapsed: %d executions", execs.Load())
	}
}

func TestFlightSequentialCallsReExecute(t *testing.T) {
	// The flight is dedupe-in-flight only, not a memo: persistence
	// belongs to the Cache.
	var f flight
	var execs atomic.Int64
	for i := 0; i < 3; i++ {
		if _, shared, _ := f.do("k", func() (any, error) { execs.Add(1); return nil, nil }); shared {
			t.Fatal("sequential caller reported shared result")
		}
	}
	if execs.Load() != 3 {
		t.Fatalf("sequential executions: %d", execs.Load())
	}
}

// TestFlightErrorSharedWithFollowers: an fn error reaches every follower
// and nothing is Put, so the next call computes again.
func TestFlightErrorSharedWithFollowers(t *testing.T) {
	c, _ := Open("")
	boom := errors.New("boom")
	gate := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	leaderStarted := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, errs[0] = Resolve(c, "k", func() (int, error) {
			close(leaderStarted)
			<-gate
			return 0, boom
		})
	}()
	<-leaderStarted
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var origin Origin
			_, origin, errs[i] = Resolve(c, "k", func() (int, error) {
				t.Error("follower executed fn")
				return 0, nil
			})
			if origin != Shared {
				t.Errorf("follower origin %v", origin)
			}
		}()
	}
	for c.FlightStats().Followers < 3 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if s := c.Stats(); s.Puts != 0 {
		t.Fatalf("failed flight published: %+v", s)
	}
	if _, origin, err := Resolve(c, "k", func() (int, error) { return 1, nil }); origin != Computed || err != nil {
		t.Fatalf("post-error call: origin=%v err=%v", origin, err)
	}
}

// TestFlightLeaderPanicBecomesError: a leader panic reaches leader and
// follower as a *PanicError, nothing is Put, and the key is released.
func TestFlightLeaderPanicBecomesError(t *testing.T) {
	c, _ := Open(t.TempDir())
	const key = "k0" // disk keys need a two-character shard prefix
	gate := make(chan struct{})
	started := make(chan struct{})
	var followerErr error
	var wg sync.WaitGroup
	wg.Add(2)
	var leaderErr error
	go func() {
		defer wg.Done()
		_, _, leaderErr = Resolve(c, key, func() (int, error) {
			close(started)
			<-gate
			panic("poisoned cell")
		})
	}()
	<-started
	go func() {
		defer wg.Done()
		_, _, followerErr = Resolve(c, key, func() (int, error) { return 0, nil })
	}()
	for c.FlightStats().Followers < 1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	for who, err := range map[string]error{"leader": leaderErr, "follower": followerErr} {
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s error: %v (want *PanicError)", who, err)
		}
		if pe.Key != key || pe.Value.(string) != "poisoned cell" {
			t.Fatalf("%s panic detail: %+v", who, pe)
		}
		if !strings.Contains(err.Error(), "poisoned cell") {
			t.Fatalf("%s error text: %q", who, err)
		}
	}
	if s := c.FlightStats(); s.Panics != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if s := c.Stats(); s.Puts != 0 {
		t.Fatalf("panicked flight published: %+v", s)
	}
	// The key is released: the next call runs fresh.
	if _, origin, err := Resolve(c, key, func() (int, error) { return 1, nil }); origin != Computed || err != nil {
		t.Fatalf("post-panic call: origin=%v err=%v", origin, err)
	}
}

func TestFlightInFlightRegistry(t *testing.T) {
	c, _ := Open("")
	if keys := c.InFlight(); len(keys) != 0 {
		t.Fatalf("idle registry: %v", keys)
	}
	gate := make(chan struct{})
	started := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for _, k := range []string{"zz", "aa"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Resolve(c, k, func() (int, error) {
				started <- struct{}{}
				<-gate
				return 0, nil
			})
		}()
	}
	<-started
	<-started
	if keys := c.InFlight(); len(keys) != 2 || keys[0] != "aa" || keys[1] != "zz" {
		t.Fatalf("registry snapshot: %v (want sorted [aa zz])", keys)
	}
	close(gate)
	wg.Wait()
	if keys := c.InFlight(); len(keys) != 0 {
		t.Fatalf("registry after completion: %v", keys)
	}
}

// TestFlightInjectedLeaderPanic checks Cache.SetInjector arms the
// flight leader, and that an injected leader panic takes the organic
// panic path: recovered, counted, surfaced as *PanicError, nothing Put,
// and the key is re-resolvable afterwards.
func TestFlightInjectedLeaderPanic(t *testing.T) {
	c, _ := Open("")
	c.SetInjector(faultinject.New(&faultinject.Plan{
		Rules: []faultinject.Rule{{Site: SiteLeader, Kind: faultinject.KindPanic}},
	}))
	_, _, err := Resolve(c, "k", func() (int, error) { return 1, nil })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("injected panic surfaced as %v", err)
	}
	if p, ok := pe.Value.(*faultinject.InjectedError); !ok || p.Site != SiteLeader {
		t.Fatalf("panic value: %v", pe.Value)
	}
	if s := c.FlightStats(); s.Panics != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if s := c.Stats(); s.Puts != 0 {
		t.Fatalf("panicked flight published: %+v", s)
	}
	// The rule's window is exhausted; the next flight succeeds.
	v, origin, err := Resolve(c, "k", func() (int, error) { return 2, nil })
	if err != nil || v != 2 || origin != Computed {
		t.Fatalf("flight after injection: v=%v origin=%v err=%v", v, origin, err)
	}
}

// resolveCounting resolves key on c with a function that counts its
// executions and returns want.
func resolveCounting(t *testing.T, c *Cache, key string, want fakeConfig, execs *atomic.Int64) (fakeConfig, Origin) {
	t.Helper()
	v, origin, err := Resolve(c, key, func() (fakeConfig, error) {
		execs.Add(1)
		return want, nil
	})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	return v, origin
}

func TestResolveColdComputesAndPuts(t *testing.T) {
	c, _ := Open(t.TempDir())
	var execs atomic.Int64
	v, origin := resolveCounting(t, c, "k0", cfg(), &execs)
	if origin != Computed || execs.Load() != 1 || !reflect.DeepEqual(v, cfg()) {
		t.Fatalf("cold resolve: origin=%v execs=%d v=%+v", origin, execs.Load(), v)
	}
	if s := c.Stats(); s.Puts != 1 || s.Misses != 1 {
		t.Fatalf("cache stats: %+v (want 1 miss, 1 put)", s)
	}
}

func TestResolveWarmIsCached(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	if err := c.Put("k0", cfg()); err != nil {
		t.Fatal(err)
	}
	// A second process: the value comes off disk, fn never runs.
	c2, _ := Open(dir)
	var execs atomic.Int64
	v, origin := resolveCounting(t, c2, "k0", fakeConfig{}, &execs)
	if origin != Cached || execs.Load() != 0 || !reflect.DeepEqual(v, cfg()) {
		t.Fatalf("warm resolve: origin=%v execs=%d v=%+v", origin, execs.Load(), v)
	}
	if s := c2.Stats(); s.Puts != 0 || s.Hits != 1 {
		t.Fatalf("cache stats: %+v", s)
	}
}

// TestResolveAfterPartnerFlightIsCached is the flight-first rule: a call
// that arrives after a partner flight for its key published and ended
// leads a new flight, and that leader finds the published value.
func TestResolveAfterPartnerFlightIsCached(t *testing.T) {
	c, _ := Open("")
	var execs atomic.Int64
	partner := make(chan struct{})
	go func() {
		defer close(partner)
		resolveCounting(t, c, "k", cfg(), &execs)
	}()
	<-partner
	if keys := c.InFlight(); len(keys) != 0 {
		t.Fatalf("partner flight still registered: %v", keys)
	}
	v, origin := resolveCounting(t, c, "k", fakeConfig{}, &execs)
	if origin != Cached || execs.Load() != 1 || !reflect.DeepEqual(v, cfg()) {
		t.Fatalf("late call: origin=%v execs=%d v=%+v", origin, execs.Load(), v)
	}
	if fs := c.FlightStats(); fs.Leaders != 2 || fs.Followers != 0 {
		t.Fatalf("flight stats: %+v (want two leaders)", fs)
	}
}
