package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"invisifence/internal/consistency"
	ifcore "invisifence/internal/core"
	"invisifence/internal/isa"
)

// runnerCases is the full consistency-implementation grid the parallel
// runner must be invisible on: every Figure 2 conventional model and every
// speculation policy.
var runnerCases = []struct {
	name  string
	model consistency.Model
	eng   ifcore.Config
}{
	{"conventional-sc", consistency.SC, ifcore.Config{Mode: ifcore.ModeOff, Model: consistency.SC}},
	{"conventional-tso", consistency.TSO, ifcore.Config{Mode: ifcore.ModeOff, Model: consistency.TSO}},
	{"conventional-rmo", consistency.RMO, ifcore.Config{Mode: ifcore.ModeOff, Model: consistency.RMO}},
	{"conventional-rc", consistency.RC, ifcore.Config{Mode: ifcore.ModeOff, Model: consistency.RC}},
	{"selective-sc", consistency.SC, ifcore.DefaultSelective(consistency.SC)},
	{"selective-rmo", consistency.RMO, ifcore.DefaultSelective(consistency.RMO)},
	{"selective-rc", consistency.RC, ifcore.DefaultSelective(consistency.RC)},
	{"louvre-rc", consistency.RC, ifcore.DefaultLouvre()},
	{"continuous", consistency.SC, ifcore.DefaultContinuous(false)},
	{"continuous-cov", consistency.SC, ifcore.DefaultContinuous(true)},
	{"aso", consistency.SC, ifcore.DefaultASO()},
}

// runWith runs the contended-program system under one runner selection.
func runWith(t *testing.T, model consistency.Model, eng ifcore.Config, mutate func(*Config)) Result {
	t.Helper()
	cfg := testConfig(2, 2, model, eng)
	mutate(&cfg)
	nnodes := cfg.Net.Width * cfg.Net.Height
	progs := make([]*isa.Program, nnodes)
	for i := range progs {
		progs[i] = programFor(model, i, nnodes)
	}
	s := New(cfg, progs, nil)
	res := s.Run()
	if !res.Finished {
		t.Fatalf("run did not finish (cycles=%d)", res.Cycles)
	}
	return res
}

// TestParallelBitExact proves the event loop is invisible: for every
// consistency implementation, the full Result — cycles, retirement counts,
// the per-class cycle breakdown, per-node stats, and every event counter —
// is identical across the lock-step loop and the event loop at one cluster
// (inline, whole-torus network) and at two cluster counts (including one
// that divides the nodes unevenly).
func TestParallelBitExact(t *testing.T) {
	for _, c := range runnerCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			lockstep := runWith(t, c.model, c.eng, func(cfg *Config) { cfg.DisableIdleSkip = true })
			for _, k := range []int{1, 2, 3} {
				got := runWith(t, c.model, c.eng, func(cfg *Config) { cfg.Clusters = k })
				if !reflect.DeepEqual(lockstep, got) {
					t.Errorf("event loop (%d clusters) diverged from lock-step:\nlock-step: %+v\nevents:    %+v", k, lockstep, got)
				}
			}
		})
	}
}

// TestParallelFallbacks pins the one-cluster rules by their observable
// result: cluster counts the node count cannot satisfy, jitter (whose RNG
// only the whole-torus network draws in lock-step order), and
// DisableIdleSkip all still deep-equal the lock-step loop.
func TestParallelFallbacks(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"clusters-exceed-nodes": func(c *Config) { c.Clusters = 5 },
		"jitter":                func(c *Config) { c.Clusters = 2; c.Net.Jitter = 3 },
		"disable-idle-skip":     func(c *Config) { c.Clusters = 2; c.DisableIdleSkip = true },
	} {
		want := runWith(t, consistency.SC, offEngine(consistency.SC), func(c *Config) {
			mutate(c)
			c.Clusters = 0
			c.DisableIdleSkip = true
		})
		got := runWith(t, consistency.SC, offEngine(consistency.SC), mutate)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: diverged from lock-step:\nlock-step: %+v\ngot:       %+v", name, want, got)
		}
	}
}

// TestDebugHookSeesEveryCycle pins the hook contract at every cluster
// count: a DebugHook selects the lock-step loop, so it observes each cycle
// exactly once, in order, and the Result still deep-equals lock-step.
func TestDebugHookSeesEveryCycle(t *testing.T) {
	want := runWith(t, consistency.SC, offEngine(consistency.SC), func(c *Config) { c.DisableIdleSkip = true })
	for _, k := range []int{0, 1, 2} {
		cfg := testConfig(2, 2, consistency.SC, offEngine(consistency.SC))
		cfg.Clusters = k
		progs := make([]*isa.Program, 4)
		for i := range progs {
			progs[i] = contendedProgram(i, 4)
		}
		s := New(cfg, progs, nil)
		var hooks, last uint64
		s.DebugHook = func(now uint64) {
			if now != last+1 {
				t.Fatalf("clusters %d: DebugHook skipped from %d to %d", k, last, now)
			}
			last = now
			hooks++
		}
		res := s.Run()
		if hooks != res.Cycles {
			t.Errorf("clusters %d: DebugHook ran %d times for %d cycles", k, hooks, res.Cycles)
		}
		if !reflect.DeepEqual(want, res) {
			t.Errorf("clusters %d: hooked run diverged from lock-step:\nlock-step: %+v\nhooked:    %+v", k, want, res)
		}
	}
}

// TestOneClusterRunsInline pins that the default event loop drives its
// single cluster on the calling goroutine: a run starts no goroutine.
func TestOneClusterRunsInline(t *testing.T) {
	cfg := testConfig(2, 2, consistency.SC, offEngine(consistency.SC))
	progs := make([]*isa.Program, 4)
	for i := range progs {
		progs[i] = contendedProgram(i, 4)
	}
	s := New(cfg, progs, nil)
	before := runtime.NumGoroutine()
	res := s.Run()
	after := runtime.NumGoroutine()
	if !res.Finished {
		t.Fatal("run did not finish")
	}
	if after != before {
		t.Errorf("one-cluster run changed the goroutine count: %d before, %d after", before, after)
	}
	if st := s.RunnerStats(); st.NodeTicks == 0 {
		t.Errorf("one-cluster run reported no node ticks: %+v", st)
	}
}

// TestWatchdogExact pins the watchdog to the same cycle and message under
// every runner: with every node stalled in a 50000-cycle Delay and a
// 10000-cycle watchdog, the lock-step loop and the event loop at one and
// two clusters must all panic at the first cycle that completes 10000
// cycles without a retirement.
func TestWatchdogExact(t *testing.T) {
	run := func(mutate func(*Config)) (msg string) {
		cfg := testConfig(2, 2, consistency.SC, offEngine(consistency.SC))
		cfg.WatchdogCycles = 10_000
		mutate(&cfg)
		progs := make([]*isa.Program, 4)
		for i := range progs {
			b := isa.NewBuilder("stall")
			b.Delay(50_000)
			b.Halt()
			progs[i] = b.MustBuild()
		}
		s := New(cfg, progs, nil)
		defer func() { msg = fmt.Sprint(recover()) }()
		s.Run()
		return ""
	}
	want := run(func(c *Config) { c.DisableIdleSkip = true })
	if !strings.Contains(want, "no retirement progress for 10000 cycles at cycle") {
		t.Fatalf("lock-step did not trip the watchdog: %q", want)
	}
	for _, k := range []int{1, 2} {
		if got := run(func(c *Config) { c.Clusters = k }); got != want {
			t.Errorf("event loop (%d clusters) watchdog diverged:\nlock-step: %q\nevents:    %q", k, want, got)
		}
	}
}
