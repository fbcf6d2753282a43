package sim

import (
	"reflect"
	"testing"

	"invisifence/internal/consistency"
	ifcore "invisifence/internal/core"
	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
)

// specAtomicPressureProgram manufactures the buffer-blocked speculative
// atomic the head classifier must treat as a skippable wait: each iteration
// takes ownership of a hot shared block with a fetch-add, fills the
// coalescing store buffer with remote-miss stores (beginning a speculation
// on the second store under SC), then immediately retries atomics on the hot
// block — whose store half now stalls behind the full buffer (and a cleaning
// writeback) while the read bit is already marked. A never-matching CAS
// exercises the failed-CAS (read-only, never skippable) path, and the
// cross-thread fetch-adds produce ownership-miss waits and abort/recovery
// around the same block.
func specAtomicPressureProgram(tid, threads int) *isa.Program {
	const (
		hotAddr   = 0x30000
		atomBase  = 0x38000 // per-thread private atomic targets
		burstBase = 0x50000
	)
	b := isa.NewBuilder("spec-atomic-pressure")
	if d := int64(tid * 11); d > 0 {
		b.Delay(d)
	}
	b.MovI(isa.R1, hotAddr)
	b.MovI(isa.R2, atomBase+int64(tid)*memtypes.BlockBytes)
	b.MovI(isa.R4, burstBase+int64(tid)*8192)
	b.MovI(isa.R5, 0) // iteration counter
	b.MovI(isa.R6, 5) // iterations
	b.Label("iter")
	// Own the private atomic block (non-speculative when the buffer is
	// empty): its line stays resident and Modified.
	b.MovI(isa.R8, 1)
	b.Fadd(isa.R9, isa.R2, 0, isa.R8)
	// Exactly fill the 8-entry coalescing buffer with stores to distinct
	// mostly-remote blocks; under SC the second store begins a speculation,
	// and the entries drain only as their multi-hundred-cycle fills return.
	b.MovI(isa.R11, 0)
	b.MovI(isa.R12, 8)
	b.Label("burst")
	b.ShlI(isa.R13, isa.R11, 6)
	b.Add(isa.R13, isa.R13, isa.R4)
	b.St(isa.R13, 0, isa.R11)
	b.AddI(isa.R11, isa.R11, 1)
	b.Bltu(isa.R11, isa.R12, "burst")
	// Atomic on the resident private block while the buffer is full: the
	// first attempt marks the read bit and starts the cleaning writeback,
	// every later attempt is the buffer-blocked wait the classifier must
	// recognize.
	b.MovI(isa.R8, 1)
	b.Fadd(isa.R9, isa.R2, 0, isa.R8)
	// A CAS whose compare value can never match: retires read-only.
	b.MovI(isa.R7, 0xdead)
	b.MovI(isa.R8, 0xbeef)
	b.Cas(isa.R9, isa.R2, 0, isa.R7, isa.R8)
	// Contended atomic on the shared hot block: ownership misses, aborts,
	// and recovery around the same classifier.
	b.MovI(isa.R8, 1)
	b.Fadd(isa.R9, isa.R1, 0, isa.R8)
	b.AddI(isa.R5, isa.R5, 1)
	b.Bltu(isa.R5, isa.R6, "iter")
	b.Halt()
	return b.MustBuild()
}

// TestIdleSkipBitExactSpecAtomicPressure pins the speculative-atomic stall
// classification (cpu.HeadState operand plumbing + the node's
// classifySpecAtomic): the hint-audited lock-step loop, the event-horizon
// serial scheduler, and the parallel runner must produce deeply-equal
// Results on a workload dominated by buffer-blocked speculative atomics. A
// misclassified wait (skipping an attempt that would have marked a bit,
// started a cleaning, counted a stall, or retired a failed CAS) diverges
// here.
func TestIdleSkipBitExactSpecAtomicPressure(t *testing.T) {
	run := func(disable bool, clusters int) Result {
		cfg := testConfig(2, 2, consistency.SC, ifcore.DefaultSelective(consistency.SC))
		cfg.DisableIdleSkip = disable
		cfg.Clusters = clusters
		nnodes := cfg.Net.Width * cfg.Net.Height
		progs := make([]*isa.Program, nnodes)
		for i := range progs {
			progs[i] = specAtomicPressureProgram(i, nnodes)
		}
		s := New(cfg, progs, nil)
		var res Result
		if disable {
			res, _ = runAudited(t, s)
		} else {
			res = s.Run()
		}
		if !res.Finished {
			t.Fatalf("run (disableIdleSkip=%v clusters=%d) did not finish", disable, clusters)
		}
		return res
	}
	lockstep := run(true, 0)
	skipped := run(false, 0)
	parallel := run(false, 2)
	if !reflect.DeepEqual(lockstep, skipped) {
		t.Errorf("idle-skip diverged from lock-step:\nlock-step: %+v\nidle-skip: %+v", lockstep, skipped)
	}
	if !reflect.DeepEqual(lockstep, parallel) {
		t.Errorf("parallel diverged from lock-step:\nlock-step: %+v\nparallel: %+v", lockstep, parallel)
	}
	// The workload must actually reach the classified path: speculation with
	// buffered stores and atomics retiring inside it.
	if lockstep.Speculations == 0 || lockstep.Retired == 0 {
		t.Fatalf("pressure program did not speculate (spec=%d)", lockstep.Speculations)
	}
}
