package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"invisifence/internal/consistency"
	ifcore "invisifence/internal/core"
	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
)

// randomProgram emits a random but terminating program: a fixed-trip outer
// loop over straight-line blocks of ALU ops, loads, stores, and atomics
// against a private memory region, plus data-dependent inner branches.
// With loopFree the block runs once, with no trip counter and no back-edge,
// so every branch jumps forward and the core sizes its ROB to the program.
// Returned alongside is the initial register state.
func randomProgram(rng *rand.Rand, tid int, region memtypes.Addr, loopFree bool) (*isa.Program, [isa.NumRegs]memtypes.Word) {
	b := isa.NewBuilder(fmt.Sprintf("fuzz-t%d", tid))
	regionWords := int64(256)
	scratch := []isa.Reg{isa.R4, isa.R5, isa.R6, isa.R7, isa.R8, isa.R9, isa.R12, isa.R13}

	b.MovI(isa.R20, int64(region))
	if !loopFree {
		b.MovI(isa.R2, 0)                    // loop counter
		b.MovI(isa.R3, int64(4+rng.Intn(6))) // trips
	}
	for i, r := range scratch {
		b.MovI(r, int64(rng.Intn(1000)+i))
	}
	b.Label("loop")
	n := 10 + rng.Intn(30)
	for i := 0; i < n; i++ {
		rd := scratch[rng.Intn(len(scratch))]
		r1 := scratch[rng.Intn(len(scratch))]
		r2 := scratch[rng.Intn(len(scratch))]
		off := int64(rng.Intn(int(regionWords))) * memtypes.WordBytes
		switch rng.Intn(10) {
		case 0:
			b.Add(rd, r1, r2)
		case 1:
			b.Sub(rd, r1, r2)
		case 2:
			b.Mul(rd, r1, r2)
		case 3:
			b.Xor(rd, r1, r2)
		case 4:
			b.AddI(rd, r1, int64(rng.Intn(64))-32)
		case 5, 6:
			b.Ld(rd, isa.R20, off)
		case 7, 8:
			b.St(isa.R20, off, r1)
		case 9:
			switch rng.Intn(3) {
			case 0:
				b.Fadd(rd, isa.R20, off, r1)
			case 1:
				b.Swap(rd, isa.R20, off, r1)
			case 2:
				b.Cas(rd, isa.R20, off, r1, r2)
			}
		}
		// Occasional data-dependent skip (exercises mispredict recovery).
		if rng.Intn(8) == 0 {
			skip := b.FreshLabel("skip")
			b.MovI(isa.R14, 1)
			b.And(isa.R14, rd, isa.R14)
			b.Bne(isa.R14, isa.R0, skip)
			b.AddI(rd, rd, 3)
			b.Label(skip)
		}
	}
	if rng.Intn(2) == 0 {
		b.Fence()
	}
	if !loopFree {
		b.AddI(isa.R2, isa.R2, 1)
		b.Bltu(isa.R2, isa.R3, "loop")
	}
	b.Halt()

	var regs [isa.NumRegs]memtypes.Word
	regs[isa.R1] = memtypes.Word(tid)
	return b.MustBuild(), regs
}

// TestRandomProgramsMatchReference is the end-to-end differential test:
// random programs on 4 cores with disjoint data regions must produce
// exactly the reference interpreter's architectural results — registers and
// memory — under every consistency implementation, speculative or not.
// Any mis-speculation that leaks, any lost store, any wrong forwarding
// breaks the comparison.
func TestRandomProgramsMatchReference(t *testing.T) {
	engines := []struct {
		name  string
		model consistency.Model
		eng   ifcore.Config
	}{
		{"sc", consistency.SC, offEngine(consistency.SC)},
		{"rmo", consistency.RMO, offEngine(consistency.RMO)},
		{"invisi-sc", consistency.SC, ifcore.DefaultSelective(consistency.SC)},
		{"continuous-cov", consistency.SC, ifcore.DefaultContinuous(true)},
		{"aso", consistency.SC, ifcore.DefaultASO()},
	}
	const cores = 4
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		progs := make([]*isa.Program, cores)
		regInits := make([][isa.NumRegs]memtypes.Word, cores)
		for i := 0; i < cores; i++ {
			progs[i], regInits[i] = randomProgram(rng, i, memtypes.Addr(0x100000+i*0x10000), false)
		}
		want := referenceRuns(t, progs, regInits)
		for _, e := range engines {
			cfg := testConfig(2, 2, e.model, e.eng)
			s := New(cfg, progs, regInits)
			res := s.Run()
			if !res.Finished {
				t.Fatalf("seed %d/%s: did not finish", seed, e.name)
			}
			checkReference(t, fmt.Sprintf("seed %d/%s", seed, e.name), s, want)
		}
	}
}

// reference is one core's architectural result under the reference
// interpreter.
type reference struct {
	regs [isa.NumRegs]memtypes.Word
	mem  map[memtypes.Addr]memtypes.Word
}

// referenceRuns runs each program alone on the reference interpreter (the
// random programs touch disjoint regions, so threads do not interact).
func referenceRuns(t testing.TB, progs []*isa.Program, regInits [][isa.NumRegs]memtypes.Word) []reference {
	t.Helper()
	want := make([]reference, len(progs))
	for i, p := range progs {
		it := isa.NewInterp(p, regInits[i], nil)
		if err := it.Run(2_000_000); err != nil {
			t.Fatalf("core %d: reference: %v", i, err)
		}
		want[i] = reference{regs: it.Regs, mem: it.Mem}
	}
	return want
}

// checkReference fails the test unless every core of the finished system s
// ended with its reference registers and memory.
func checkReference(t testing.TB, label string, s *System, want []reference) {
	t.Helper()
	for i, w := range want {
		for r := 0; r < isa.NumRegs; r++ {
			if got := s.Node(i).Core().ArchReg(isa.Reg(r)); got != w.regs[r] {
				t.Fatalf("%s: core %d r%d = %d, want %d", label, i, r, got, w.regs[r])
			}
		}
		for a, v := range w.mem {
			if got := s.ReadWord(a); got != v {
				t.Fatalf("%s: core %d mem[%#x] = %d, want %d", label, i, uint64(a), got, v)
			}
		}
	}
}

// FuzzRunnerEquivalence is the runner-equivalence check over random
// programs: for each seed, random multi-threaded programs must produce
// deeply-equal Results under the lock-step loop and the event loop at one,
// two and three clusters, across a mix of speculative and conventional
// implementations, and every run that finishes must end with the reference
// interpreter's registers and memory. A third of the seeds draw loop-free
// programs, whose cores get program-length ROBs. Odd seeds also pin
// MaxCycles truncation (runs that hit the bound must truncate at the same
// cycle with identical partial stats), and a jittered network must match
// lock-step at one cluster, where jitter is drawn in the lock-step send
// order. Every lock-step run is hint-audited (runAudited): no node may
// change state before its NextEvent hint. The seed corpus holds the seeds
// of the fixed list this check grew from.
func FuzzRunnerEquivalence(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1234, 99991} {
		f.Add(seed)
	}
	engines := []struct {
		name  string
		model consistency.Model
		eng   ifcore.Config
	}{
		{"sc", consistency.SC, offEngine(consistency.SC)},
		{"invisi-sc", consistency.SC, ifcore.DefaultSelective(consistency.SC)},
		{"continuous-cov", consistency.SC, ifcore.DefaultContinuous(true)},
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		const cores = 4
		rng := rand.New(rand.NewSource(seed))
		progs := make([]*isa.Program, cores)
		regInits := make([][isa.NumRegs]memtypes.Word, cores)
		for i := 0; i < cores; i++ {
			progs[i], regInits[i] = randomProgram(rng, i, memtypes.Addr(0x100000+i*0x10000), seed%3 == 0)
		}
		want := referenceRuns(t, progs, regInits)
		for _, e := range engines {
			run := func(label string, mutate func(*Config)) Result {
				cfg := testConfig(2, 2, e.model, e.eng)
				if seed%2 != 0 {
					cfg.MaxCycles = 30_000
				}
				mutate(&cfg)
				s := New(cfg, progs, regInits)
				var res Result
				if cfg.DisableIdleSkip {
					res, _ = runAudited(t, s) // the lock-step oracle, hint-audited
				} else {
					res = s.Run()
				}
				if res.Finished {
					checkReference(t, fmt.Sprintf("seed %d/%s/%s", seed, e.name, label), s, want)
				}
				return res
			}
			lockstep := run("lock-step", func(c *Config) { c.DisableIdleSkip = true })
			for _, k := range []int{1, 2, 3} {
				if got := run(fmt.Sprintf("%d clusters", k), func(c *Config) { c.Clusters = k }); !reflect.DeepEqual(lockstep, got) {
					t.Errorf("seed %d/%s: event loop (%d clusters) diverged from lock-step:\nlock-step: %+v\nevents:    %+v",
						seed, e.name, k, lockstep, got)
				}
			}
			jitter := func(c *Config) { c.Net.Jitter = 4; c.Net.Seed = seed }
			jitteredLockstep := run("jittered lock-step", func(c *Config) { jitter(c); c.DisableIdleSkip = true })
			if got := run("jittered", jitter); !reflect.DeepEqual(jitteredLockstep, got) {
				t.Errorf("seed %d/%s: jittered event loop diverged from lock-step:\nlock-step: %+v\nevents:    %+v",
					seed, e.name, jitteredLockstep, got)
			}
		}
	})
}
