// Package litmus runs classic memory-model litmus tests (store buffering /
// Dekker, message passing, load buffering, IRIW, coherence) against every
// consistency implementation in the simulator — conventional SC/TSO/RMO and
// all InvisiFence/ASO variants.
//
// This is the correctness heart of the reproduction: the paper's claim is
// that post-retirement speculation is *invisible* — outcomes forbidden by
// the target model must never appear, no matter how deep the speculation,
// how many rollbacks occur, or how requests interleave. The runner explores
// interleavings by sweeping seeds over network jitter, per-thread start
// skew, and shared-variable placement (rotating directory home nodes).
package litmus

import (
	"fmt"
	"sync"

	"invisifence/internal/consistency"
	"invisifence/internal/cpu"
	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
	"invisifence/internal/sim"
)

// Outcome is the observed result-register values of one run, indexed by
// result slot.
type Outcome [4]memtypes.Word

// String implements fmt.Stringer.
func (o Outcome) String() string {
	return fmt.Sprintf("[%d %d %d %d]", o[0], o[1], o[2], o[3])
}

// Any, in an OutcomeSpec slot, matches every observed value.
const Any = int64(-1)

// OutcomeSpec is a serializable outcome predicate: one expected value per
// outcome slot, with Any matching everything. It is the target language of
// the fence-insertion search (internal/fencesearch) and of the corpus
// expectation tables under testdata/litmus/ — unlike the Forbidden
// closures, a spec can be hashed into a cache key and printed in a report.
type OutcomeSpec []int64

// Matches reports whether the observed outcome satisfies the spec. Slots
// beyond the spec's length match implicitly.
func (s OutcomeSpec) Matches(o Outcome) bool {
	for i, v := range s {
		if v != Any && o[i] != memtypes.Word(v) {
			return false
		}
	}
	return true
}

// String renders the spec with * for wildcard slots, e.g. "[1 0 * *]".
func (s OutcomeSpec) String() string {
	out := "["
	for i, v := range s {
		if i > 0 {
			out += " "
		}
		if v == Any {
			out += "*"
		} else {
			out += fmt.Sprintf("%d", v)
		}
	}
	return out + "]"
}

// CountMatches sums the histogram weight of outcomes satisfying the spec.
func CountMatches(hist map[Outcome]int, s OutcomeSpec) int {
	n := 0
	for o, c := range hist {
		if s.Matches(o) {
			n += c
		}
	}
	return n
}

// Test is one litmus test: thread bodies plus the predicate for outcomes
// the target model forbids.
type Test struct {
	Name    string
	Threads int
	// Build emits thread t's body. vars is the base register for the
	// shared variable area; results is the base register for the outcome
	// area (thread t writes its observations to fixed slots).
	Build func(b *isa.Builder, t int, vars, results isa.Reg, fp isa.FencePolicy)
	// Slots is how many register-result outcome words the test defines.
	Slots int
	// FinalVars lists shared-variable indices whose post-run memory values
	// are appended as outcome slots after the register slots (for tests
	// whose condition is on final state, e.g. 2+2W).
	FinalVars []int
	// Forbidden reports whether the outcome violates the model. fenced
	// says the program was built with the RMO fence policy (under SC/TSO
	// programs are unfenced but the model itself forbids the reordering).
	Forbidden func(o Outcome, model consistency.Model, fenced bool) bool
	// Interesting reports the relaxed outcome whose appearance we track
	// (e.g., both-zero under TSO store buffering).
	Interesting func(o Outcome) bool
	// Target is the canonical SC-forbidden outcome, as a serializable
	// spec: the default query of the fence-insertion search. Nil when the
	// violation is not expressible as a single spec (RMW atomicity).
	Target OutcomeSpec
}

// TotalSlots is the full outcome width: register slots plus final-state
// slots.
func (t Test) TotalSlots() int { return t.Slots + len(t.FinalVars) }

const (
	varsAddr    = memtypes.Addr(0x10000)
	resultsAddr = memtypes.Addr(0x20000)
	// Shared variables live one per block to avoid false sharing.
	varStride = memtypes.BlockBytes
)

// varOff returns the byte offset of shared variable i.
func varOff(i int) int64 { return int64(i) * varStride }

// pubSt emits an ordering-carrying publication store: st.rel under an RC
// annotation policy, an optional full fence plus a plain store otherwise.
// Tests route their release edges through this so one builder serves every
// policy the corpus sweeps (unfenced, RMO fences, RC annotations).
func pubSt(b *isa.Builder, fp isa.FencePolicy, base isa.Reg, off int64, src isa.Reg) {
	if fp.ReleaseStores {
		b.StRel(base, off, src)
		return
	}
	if fp.Release {
		b.Fence()
	}
	b.St(base, off, src)
}

// acqLd emits an ordering-carrying observation load: ld.acq under an RC
// annotation policy, a plain load plus an optional trailing fence otherwise.
func acqLd(b *isa.Builder, fp isa.FencePolicy, rd, base isa.Reg, off int64) {
	if fp.AcquireLoads {
		b.LdAcq(rd, base, off)
		return
	}
	b.Ld(rd, base, off)
	if fp.Acquire {
		b.Fence()
	}
}

// weakUnordered reports whether the model leaves the test's edges unordered
// for a program built without fences or annotations: RMO and RC relax
// everything in that case (RC's extra ordering exists only on annotated
// accesses, which unfenced programs do not emit).
func weakUnordered(m consistency.Model, fenced bool) bool {
	return (m == consistency.RMO || m == consistency.RC) && !fenced
}

// resOff returns the byte offset of result slot i (one per block: each
// thread writes its own).
func resOff(i int) int64 { return int64(i) * varStride }

// Tests is the suite.
var Tests = []Test{
	{
		// Store buffering (Dekker): both threads store then load the
		// other's flag. r0 == r1 == 0 is forbidden under SC, allowed
		// under TSO and RMO.
		Name:    "SB",
		Threads: 2,
		Slots:   2,
		Build: func(b *isa.Builder, t int, vars, results isa.Reg, fp isa.FencePolicy) {
			mine, theirs := varOff(t), varOff(1-t)
			b.MovI(isa.R6, 1)
			b.St(vars, mine, isa.R6)
			b.Ld(isa.R7, vars, theirs)
			b.St(results, resOff(t), isa.R7)
		},
		Forbidden: func(o Outcome, m consistency.Model, fenced bool) bool {
			if m != consistency.SC {
				return false
			}
			return o[0] == 0 && o[1] == 0
		},
		Interesting: func(o Outcome) bool { return o[0] == 0 && o[1] == 0 },
		Target:      OutcomeSpec{0, 0},
	},
	{
		// Message passing: T0 writes data then flag; T1 reads flag then
		// data. Seeing the flag but stale data is forbidden under SC and
		// TSO, and under RMO/RC when fences (or acquire/release
		// annotations) are emitted.
		Name:    "MP",
		Threads: 2,
		Slots:   2,
		Build: func(b *isa.Builder, t int, vars, results isa.Reg, fp isa.FencePolicy) {
			data, flag := varOff(0), varOff(1)
			if t == 0 {
				b.MovI(isa.R6, 1)
				b.St(vars, data, isa.R6)
				pubSt(b, fp, vars, flag, isa.R6)
				return
			}
			acqLd(b, fp, isa.R7, vars, flag)
			b.Ld(isa.R8, vars, data)
			b.St(results, resOff(0), isa.R7)
			b.St(results, resOff(1), isa.R8)
		},
		Forbidden: func(o Outcome, m consistency.Model, fenced bool) bool {
			if weakUnordered(m, fenced) {
				return false
			}
			return o[0] == 1 && o[1] == 0
		},
		Interesting: func(o Outcome) bool { return o[0] == 1 && o[1] == 0 },
		Target:      OutcomeSpec{1, 0},
	},
	{
		// Load buffering: r0 == r1 == 1 requires stores to become visible
		// before older loads bind, impossible with in-order retirement in
		// any of these implementations (and forbidden by SC/TSO).
		Name:    "LB",
		Threads: 2,
		Slots:   2,
		Build: func(b *isa.Builder, t int, vars, results isa.Reg, fp isa.FencePolicy) {
			mine, theirs := varOff(t), varOff(1-t)
			b.Ld(isa.R7, vars, theirs)
			b.MovI(isa.R6, 1)
			b.St(vars, mine, isa.R6)
			b.St(results, resOff(t), isa.R7)
		},
		Forbidden: func(o Outcome, m consistency.Model, fenced bool) bool {
			return o[0] == 1 && o[1] == 1
		},
		Target: OutcomeSpec{1, 1},
	},
	{
		// IRIW: two writers, two readers observing opposite orders.
		// Forbidden under SC and TSO (store atomicity + load ordering),
		// and under RMO with fences between the reader loads.
		Name:    "IRIW",
		Threads: 4,
		Slots:   4,
		Build: func(b *isa.Builder, t int, vars, results isa.Reg, fp isa.FencePolicy) {
			x, y := varOff(0), varOff(1)
			switch t {
			case 0:
				b.MovI(isa.R6, 1)
				b.St(vars, x, isa.R6)
			case 1:
				b.MovI(isa.R6, 1)
				b.St(vars, y, isa.R6)
			case 2:
				acqLd(b, fp, isa.R7, vars, x)
				b.Ld(isa.R8, vars, y)
				b.St(results, resOff(0), isa.R7)
				b.St(results, resOff(1), isa.R8)
			case 3:
				acqLd(b, fp, isa.R7, vars, y)
				b.Ld(isa.R8, vars, x)
				b.St(results, resOff(2), isa.R7)
				b.St(results, resOff(3), isa.R8)
			}
		},
		Forbidden: func(o Outcome, m consistency.Model, fenced bool) bool {
			if weakUnordered(m, fenced) {
				return false
			}
			return o[0] == 1 && o[1] == 0 && o[2] == 1 && o[3] == 0
		},
		Target: OutcomeSpec{1, 0, 1, 0},
	},
	{
		// SB+F: Dekker with explicit full fences between each thread's
		// store and load. Forbidden under every model — this is the
		// paper's core fence semantics, and under InvisiFence the fence
		// retires *speculatively* (§3.2) yet must still be enforced by
		// the atomic commit of the speculation.
		Name:    "SB+F",
		Threads: 2,
		Slots:   2,
		Build: func(b *isa.Builder, t int, vars, results isa.Reg, fp isa.FencePolicy) {
			mine, theirs := varOff(t), varOff(1-t)
			b.MovI(isa.R6, 1)
			b.St(vars, mine, isa.R6)
			b.Fence()
			b.Ld(isa.R7, vars, theirs)
			b.St(results, resOff(t), isa.R7)
		},
		Forbidden: func(o Outcome, m consistency.Model, fenced bool) bool {
			return o[0] == 0 && o[1] == 0
		},
		Target: OutcomeSpec{0, 0},
	},
	{
		// WRC: write-to-read causality. T1 observes T0's write and then
		// writes a flag; T2 observing the flag must also see T0's write.
		// Forbidden under SC/TSO, and under RMO with fences.
		Name:    "WRC",
		Threads: 3,
		Slots:   3,
		Build: func(b *isa.Builder, t int, vars, results isa.Reg, fp isa.FencePolicy) {
			x, y := varOff(0), varOff(1)
			switch t {
			case 0:
				b.MovI(isa.R6, 1)
				b.St(vars, x, isa.R6)
			case 1:
				acqLd(b, fp, isa.R7, vars, x)
				b.St(vars, y, isa.R7) // forwards the observed value
				b.St(results, resOff(0), isa.R7)
			case 2:
				acqLd(b, fp, isa.R8, vars, y)
				b.Ld(isa.R9, vars, x)
				b.St(results, resOff(1), isa.R8)
				b.St(results, resOff(2), isa.R9)
			}
		},
		Forbidden: func(o Outcome, m consistency.Model, fenced bool) bool {
			if weakUnordered(m, fenced) {
				return false
			}
			return o[0] == 1 && o[1] == 1 && o[2] == 0
		},
		Target: OutcomeSpec{1, 1, 0},
	},
	{
		// CoRR: per-location coherence. A reader must never observe a
		// location's writes going backwards (1 then 0), under any model.
		Name:    "CoRR",
		Threads: 2,
		Slots:   2,
		Build: func(b *isa.Builder, t int, vars, results isa.Reg, fp isa.FencePolicy) {
			x := varOff(0)
			if t == 0 {
				b.MovI(isa.R6, 1)
				b.St(vars, x, isa.R6)
				return
			}
			b.Ld(isa.R7, vars, x)
			b.Ld(isa.R8, vars, x)
			b.St(results, resOff(0), isa.R7)
			b.St(results, resOff(1), isa.R8)
		},
		Forbidden: func(o Outcome, m consistency.Model, fenced bool) bool {
			return o[0] == 1 && o[1] == 0
		},
		Target: OutcomeSpec{1, 0},
	},
	{
		// Atomicity: both threads fetch-add the same word once; the sum
		// must be exactly 2 (lost RMW updates are forbidden everywhere).
		Name:    "RMW",
		Threads: 2,
		Slots:   2,
		Build: func(b *isa.Builder, t int, vars, results isa.Reg, fp isa.FencePolicy) {
			x := varOff(0)
			b.MovI(isa.R6, 1)
			b.Fadd(isa.R7, vars, x, isa.R6)
			b.St(results, resOff(t), isa.R7)
		},
		Forbidden: func(o Outcome, m consistency.Model, fenced bool) bool {
			// Old values observed must be {0, 1} in some order.
			return !((o[0] == 0 && o[1] == 1) || (o[0] == 1 && o[1] == 0))
		},
	},
	{
		// ISA2: transitive message passing through an intermediary. T0
		// publishes x then y; T1 forwards its observation of y into z; T2
		// observing z must also see x. Forbidden under SC and TSO (needs
		// W->W, R->W, or R->R reordering), under RMO only with fences.
		Name:    "ISA2",
		Threads: 3,
		Slots:   3,
		Build: func(b *isa.Builder, t int, vars, results isa.Reg, fp isa.FencePolicy) {
			x, y, z := varOff(0), varOff(1), varOff(2)
			switch t {
			case 0:
				b.MovI(isa.R6, 1)
				b.St(vars, x, isa.R6)
				pubSt(b, fp, vars, y, isa.R6)
			case 1:
				acqLd(b, fp, isa.R7, vars, y)
				b.St(vars, z, isa.R7) // forwards the observed value
				b.St(results, resOff(0), isa.R7)
			case 2:
				acqLd(b, fp, isa.R8, vars, z)
				b.Ld(isa.R9, vars, x)
				b.St(results, resOff(1), isa.R8)
				b.St(results, resOff(2), isa.R9)
			}
		},
		Forbidden: func(o Outcome, m consistency.Model, fenced bool) bool {
			if weakUnordered(m, fenced) {
				return false
			}
			return o[0] == 1 && o[1] == 1 && o[2] == 0
		},
		Target: OutcomeSpec{1, 1, 0},
	},
	{
		// 2+2W: write-order cycle on two locations. Both finals equal to
		// the *first* writes (x == 2 and y == 2) needs each thread's
		// stores to drain out of order — forbidden under SC and TSO (FIFO
		// buffers), under RMO only with a fence between the stores.
		Name:      "2+2W",
		Threads:   2,
		Slots:     0,
		FinalVars: []int{0, 1}, // final x, final y
		Build: func(b *isa.Builder, t int, vars, results isa.Reg, fp isa.FencePolicy) {
			x, y := varOff(0), varOff(1)
			first, second := x, y
			if t == 1 {
				first, second = y, x
			}
			b.MovI(isa.R6, 2)
			b.MovI(isa.R7, 1)
			b.St(vars, first, isa.R6)
			pubSt(b, fp, vars, second, isa.R7)
		},
		Forbidden: func(o Outcome, m consistency.Model, fenced bool) bool {
			if weakUnordered(m, fenced) {
				return false
			}
			return o[0] == 2 && o[1] == 2
		},
		Interesting: func(o Outcome) bool { return o[0] == 2 && o[1] == 2 },
		Target:      OutcomeSpec{2, 2},
	},
	{
		// R: store-order vs. load. T0 publishes x then y=1; T1 writes y=2
		// then reads x. Final y == 2 with r == 0 needs T1's read to bypass
		// its own pending store — allowed under TSO and RMO (like SB),
		// forbidden under SC and under RMO with a full fence on T1.
		Name:      "R",
		Threads:   2,
		Slots:     1,
		FinalVars: []int{1}, // final y
		Build: func(b *isa.Builder, t int, vars, results isa.Reg, fp isa.FencePolicy) {
			x, y := varOff(0), varOff(1)
			if t == 0 {
				b.MovI(isa.R6, 1)
				b.St(vars, x, isa.R6)
				pubSt(b, fp, vars, y, isa.R6)
				return
			}
			// T1's store→load edge needs a *full* fence: release/acquire
			// annotations never order a store before a later load, so under
			// RC the outcome stays allowed even with RCFences.
			b.MovI(isa.R6, 2)
			b.St(vars, y, isa.R6)
			if fp.Release {
				b.Fence()
			}
			b.Ld(isa.R7, vars, x)
			b.St(results, resOff(0), isa.R7)
		},
		Forbidden: func(o Outcome, m consistency.Model, fenced bool) bool {
			if m != consistency.SC && !(m == consistency.RMO && fenced) {
				return false
			}
			return o[0] == 0 && o[1] == 2
		},
		Interesting: func(o Outcome) bool { return o[0] == 0 && o[1] == 2 },
		Target:      OutcomeSpec{0, 2},
	},
	{
		// S: store-order vs. dependent store. T0 writes x=2 then y=1; T1
		// reading y==1 then writing x=1 must leave x == 1 (its write is
		// coherence-after T0's). r == 1 with final x == 2 is forbidden
		// under SC and TSO, under RMO only with fences.
		Name:      "S",
		Threads:   2,
		Slots:     1,
		FinalVars: []int{0}, // final x
		Build: func(b *isa.Builder, t int, vars, results isa.Reg, fp isa.FencePolicy) {
			x, y := varOff(0), varOff(1)
			if t == 0 {
				b.MovI(isa.R6, 2)
				b.MovI(isa.R7, 1)
				b.St(vars, x, isa.R6)
				pubSt(b, fp, vars, y, isa.R7)
				return
			}
			acqLd(b, fp, isa.R7, vars, y)
			b.MovI(isa.R6, 1)
			b.St(vars, x, isa.R6)
			b.St(results, resOff(0), isa.R7)
		},
		Forbidden: func(o Outcome, m consistency.Model, fenced bool) bool {
			if weakUnordered(m, fenced) {
				return false
			}
			return o[0] == 1 && o[1] == 2
		},
		Target: OutcomeSpec{1, 2},
	},
	{
		// MP-rel-acq: message passing whose ordering lives entirely in the
		// instruction annotations — the flag is published with st.rel and
		// observed with ld.acq, with no standalone fences under the RC
		// policy. Under RC the annotations alone forbid the stale-data
		// outcome even in the "unfenced" sweep; under RMO the machine
		// ignores them (they degrade to plain ld/st) and only an explicit
		// fence policy closes the window. This is the pinning test for the
		// RC variant family: it separates RC from RMO on identical programs.
		Name:    "MP-rel-acq",
		Threads: 2,
		Slots:   2,
		Build: func(b *isa.Builder, t int, vars, results isa.Reg, fp isa.FencePolicy) {
			data, flag := varOff(0), varOff(1)
			if t == 0 {
				b.MovI(isa.R6, 1)
				b.St(vars, data, isa.R6)
				if fp.Release {
					b.Fence()
				}
				b.StRel(vars, flag, isa.R6)
				return
			}
			b.LdAcq(isa.R7, vars, flag)
			if fp.Acquire {
				b.Fence()
			}
			b.Ld(isa.R8, vars, data)
			b.St(results, resOff(0), isa.R7)
			b.St(results, resOff(1), isa.R8)
		},
		Forbidden: func(o Outcome, m consistency.Model, fenced bool) bool {
			if m == consistency.RMO && !fenced {
				return false
			}
			return o[0] == 1 && o[1] == 0
		},
		Interesting: func(o Outcome) bool { return o[0] == 1 && o[1] == 0 },
		Target:      OutcomeSpec{1, 0},
	},
	{
		// ISA2-rel-acq: the transitive message-passing chain with every
		// edge carried by annotations — st.rel publications, ld.acq
		// observations, no fences under RC. Forbidden under SC/TSO and
		// under RC unconditionally; under RMO the annotations degrade and
		// the outcome is only forbidden with explicit fences.
		Name:    "ISA2-rel-acq",
		Threads: 3,
		Slots:   3,
		Build: func(b *isa.Builder, t int, vars, results isa.Reg, fp isa.FencePolicy) {
			x, y, z := varOff(0), varOff(1), varOff(2)
			switch t {
			case 0:
				b.MovI(isa.R6, 1)
				b.St(vars, x, isa.R6)
				if fp.Release {
					b.Fence()
				}
				b.StRel(vars, y, isa.R6)
			case 1:
				b.LdAcq(isa.R7, vars, y)
				if fp.Acquire {
					b.Fence()
				}
				b.StRel(vars, z, isa.R7) // forwards the observed value
				b.St(results, resOff(0), isa.R7)
			case 2:
				b.LdAcq(isa.R8, vars, z)
				if fp.Acquire {
					b.Fence()
				}
				b.Ld(isa.R9, vars, x)
				b.St(results, resOff(1), isa.R8)
				b.St(results, resOff(2), isa.R9)
			}
		},
		Forbidden: func(o Outcome, m consistency.Model, fenced bool) bool {
			if m == consistency.RMO && !fenced {
				return false
			}
			return o[0] == 1 && o[1] == 1 && o[2] == 0
		},
		Target: OutcomeSpec{1, 1, 0},
	},
}

// ConfigSpec is one implementation under test: Name is its catalogue key
// ("invisi-sc"), and the embedded Variant supplies the model, engine and
// store-buffer capacity.
type ConfigSpec = sim.Implementation

// AllConfigs returns every implementation the suite validates: the whole
// catalogue, in corpus order.
func AllConfigs() []ConfigSpec { return sim.Implementations() }

// Result summarizes a sweep of one test under one configuration.
type Result struct {
	Test       string
	Config     string
	Runs       int
	Outcomes   map[Outcome]int
	Violations []Outcome
	Relaxed    int // runs showing the Interesting outcome
}

// Run sweeps a test under a configuration across seeds, each seed with
// different network jitter and thread skew. Programs are specialized per
// model: under RMO the builders emit their fences, under RC their
// acquire/release annotations (fenced = true for the Forbidden predicate).
func Run(t Test, spec ConfigSpec, seeds int) Result {
	return RunWithPolicy(t, spec, consistency.SyncFences(spec.Model), seeds)
}

// RunWithPolicy is Run with an explicit fence policy, letting callers probe
// the *unfenced* behavior of a weak model (the corpus tables pin both).
func RunWithPolicy(t Test, spec ConfigSpec, fp isa.FencePolicy, seeds int) Result {
	fenced := fp.Synchronizes()
	h := HarnessFor(t, fp)
	res := Result{Test: t.Name, Config: spec.Name, Outcomes: make(map[Outcome]int)}
	for seed := 0; seed < seeds; seed++ {
		o := h.RunSeed(spec, int64(seed))
		res.Runs++
		res.Outcomes[o]++
		if t.Forbidden(o, spec.Model, fenced) {
			res.Violations = append(res.Violations, o)
		}
		if t.Interesting != nil && t.Interesting(o) {
			res.Relaxed++
		}
	}
	return res
}

// BodyPrograms assembles the per-thread body programs of a test under a
// fence policy, without the per-seed harness prefix (start skew and the
// R4/R5 base-register setup): the stable instruction streams on which
// fence-insertion sites are enumerated.
func BodyPrograms(t Test, fp isa.FencePolicy) []*isa.Program {
	progs := make([]*isa.Program, t.Threads)
	for i := range progs {
		b := isa.NewBuilder(fmt.Sprintf("%s-t%d", t.Name, i))
		t.Build(b, i, isa.R4, isa.R5, fp)
		b.Halt()
		progs[i] = b.MustBuild()
	}
	return progs
}

// Harness runs prebuilt thread programs under the litmus machine
// configuration and extracts outcomes. It is the program-level interface
// the fence-insertion search evaluates candidates through: Bodies may be
// any straight-line-or-looping programs using the vars/results protocol
// (R4 = shared-variable base, R5 = result base), typically a Test's
// BodyPrograms with fences inserted.
type Harness struct {
	Name   string
	Slots  int   // register-result outcome slots read from the result area
	Finals []int // shared-var indices appended as outcome slots
	Bodies []*isa.Program
	// Jitter overrides the per-message network jitter bound (0 = the
	// suite default). The fence-insertion oracle runs with a wider bound
	// than the plain suite: fill-latency differentials up to Jitter are
	// what expose load-load and store-store reorderings, and a too-narrow
	// sweep would certify fence sets that the model does not justify.
	Jitter uint64
}

// HarnessFor wraps a test's body programs in a harness.
func HarnessFor(t Test, fp isa.FencePolicy) Harness {
	return Harness{Name: t.Name, Slots: t.Slots, Finals: t.FinalVars, Bodies: BodyPrograms(t, fp)}
}

// TotalSlots is the full outcome width.
func (h Harness) TotalSlots() int { return h.Slots + len(h.Finals) }

// Sweep runs the harness across seeds and histograms the outcomes.
func (h Harness) Sweep(spec ConfigSpec, seeds int) map[Outcome]int {
	hist := make(map[Outcome]int)
	for seed := 0; seed < seeds; seed++ {
		hist[h.RunSeed(spec, int64(seed))]++
	}
	return hist
}

// varsBase rotates the shared-variable area by whole blocks across seeds.
// Rotation moves each variable's directory home node around the 2x2 torus,
// so the drain/fill races that weak outcomes depend on (which store gains
// ownership first, which load's fill arrives late) are actually explored:
// with a fixed placement the home distances pin most races and the sweep
// never exhibits store-store reordering, which would blind the
// fence-insertion oracle.
func varsBase(seed int64) memtypes.Addr {
	return varsAddr + memtypes.Addr((seed%4)*varStride)
}

// machine is the litmus system: a 2x2 torus with short hops and small
// caches, so a handful of instructions per thread races through coherence
// in a few hundred cycles. Its jitter bound (8) is the suite default that
// Harness.Jitter overrides.
var machine = sim.Machine{
	Width: 2, Height: 2,
	HopLatency: 12, LocalLatency: 1,
	Jitter:  8,
	L1Bytes: 8 << 10, L1Ways: 2, L1Latency: 2,
	L2Bytes: 64 << 10, L2Ways: 8, L2Latency: 10,
	MemLatency: 50, MemBanks: 8, BankBusy: 4,
	MSHRs:              16,
	StorePrefetchDepth: 4,
	Core:               cpu.DefaultConfig(),
}

// RunSeed runs one seed: each thread gets a seed-dependent start-skew delay
// plus the base-register prefix (R4 = rotated shared-variable base, R5 =
// result base), the simulation runs to completion, and the outcome is read
// back from the result area plus any final-state slots.
func (h Harness) RunSeed(spec ConfigSpec, seed int64) Outcome {
	r, _ := rigs.Get().(*rig)
	if r == nil {
		r = new(rig)
	}
	cfg := h.machine(r, spec, seed)
	if res := r.sys.Init(cfg, r.progs[:], nil).Run(); !res.Finished {
		panic(fmt.Sprintf("litmus %s/%s seed %d did not finish", h.Name, spec.Name, seed))
	}
	o := h.outcome(&r.sys, seed)
	rigs.Put(r)
	return o
}

// nodes is the litmus machine's node count, the most threads a test has.
const nodes = 4

// rig is one pooled litmus machine: a finished System for RunSeed to
// rebuild in place, and the per-node programs each seed is assembled into,
// whose instruction arrays are reused too. A run of a few hundred cycles
// costs less to simulate than to build. One goroutine holds a rig from Get
// to Put, and the programs stay unchanged while its System runs.
type rig struct {
	sys   sim.System
	progs [nodes]*isa.Program
	bufs  [nodes]isa.Program
}

// rigs holds the finished rigs.
var rigs sync.Pool

// haltProgram runs on every node without a thread; the simulator never
// reads a program's name.
var haltProgram = func() *isa.Program {
	b := isa.NewBuilder("idle")
	b.Halt()
	return b.MustBuild()
}()

// machine assembles one seed's per-node programs into r and returns the
// seed's system configuration.
func (h Harness) machine(r *rig, spec ConfigSpec, seed int64) sim.Config {
	if len(h.Bodies) > nodes {
		panic(fmt.Sprintf("litmus: %s has %d threads, max %d", h.Name, len(h.Bodies), nodes))
	}
	vbase := varsBase(seed)
	for i := range r.progs {
		if i >= len(h.Bodies) {
			r.progs[i] = haltProgram
			continue
		}
		// Seed-dependent start skew explores interleavings.
		r.progs[i] = r.assemble(i, h.Bodies[i], (seed*7+int64(i)*13)%40, vbase)
	}
	m := machine
	if h.Jitter != 0 {
		m.Jitter = h.Jitter
	}
	cfg := m.Assemble(spec.Variant, seed)
	cfg.MaxCycles = 500_000
	cfg.WatchdogCycles = 100_000
	return cfg
}

// assemble writes node i's program into the rig's buffer: a delay of skew
// cycles when skew > 0, R4 = vbase and R5 = the result base, then body
// with every branch target t > 0 moved past the prefix. The instructions
// equal isa.InsertBefore(body, prefix)'s, where a target of 0 — a branch
// to the program start — resolves to the first inserted instruction and
// so stays 0. Labels stay nil: the simulator reads no label.
func (r *rig) assemble(i int, body *isa.Program, skew int64, vbase memtypes.Addr) *isa.Program {
	in := r.bufs[i].Instrs[:0]
	if skew > 0 {
		in = append(in, isa.Instr{Op: isa.Delay, Imm: skew})
	}
	in = append(in,
		isa.Instr{Op: isa.MovI, Rd: isa.R4, Imm: int64(vbase)},
		isa.Instr{Op: isa.MovI, Rd: isa.R5, Imm: int64(resultsAddr)})
	k := len(in)
	for _, x := range body.Instrs {
		if x.Op.IsBranch() && x.Target > 0 {
			x.Target += k
		}
		in = append(in, x)
	}
	r.bufs[i] = isa.Program{Name: body.Name, Instrs: in}
	return &r.bufs[i]
}

// outcome reads seed's outcome back from a finished system.
func (h Harness) outcome(s *sim.System, seed int64) Outcome {
	var o Outcome
	for i := 0; i < h.Slots; i++ {
		o[i] = s.ReadWord(resultsAddr + memtypes.Addr(resOff(i)))
	}
	for j, v := range h.Finals {
		o[h.Slots+j] = s.ReadWord(varsBase(seed) + memtypes.Addr(varOff(v)))
	}
	return o
}
