// Package core implements the paper's primary contribution: the InvisiFence
// post-retirement speculation engine (§3-§4). It owns the checkpoint state
// and all speculation policy decisions:
//
//   - selective speculation (§4.1): initiate a checkpoint only when an
//     instruction would otherwise stall at retirement under the target
//     consistency model's Figure 2 rules, and commit opportunistically, in
//     constant time, the moment the store buffer drains;
//   - continuous speculation (§4.2): execute everything inside chunks with a
//     minimum chunk size, pipelining commit with a second checkpoint;
//   - commit-on-violate (§3.2): defer a conflicting external request for a
//     bounded timeout, converting would-be rollbacks into commits;
//   - the ASO baseline's policies (§2.2/§5): periodic checkpoints during
//     speculation and a commit that drains a per-store buffer while blocking
//     external requests.
//
// The engine manipulates machine state through the Host interface
// (implemented by internal/node): flash-clearing speculative bits,
// conditionally invalidating speculatively-written lines, flushing
// speculative store-buffer entries, and restoring register checkpoints.
package core

import (
	"fmt"

	"invisifence/internal/cache"
	"invisifence/internal/consistency"
	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
	"invisifence/internal/stats"
)

// Mode selects the speculation policy.
type Mode uint8

const (
	// ModeOff: conventional implementation only (baselines).
	ModeOff Mode = iota
	// ModeSelective is INVISIFENCE-SELECTIVE (§4.1).
	ModeSelective
	// ModeContinuous is INVISIFENCE-CONTINUOUS (§4.2).
	ModeContinuous
	// ModeASO approximates the ASO baseline (§2.2): selective speculation
	// with periodic checkpoints and drain-based commit.
	ModeASO
	// ModeLouvre approximates a Louvre-style versioned-ordering baseline
	// over release consistency: a version epoch opens only at a release
	// boundary (a st.rel that would otherwise wait on the store-buffer
	// drain), per-block version tags are the epoch's speculative L1 bits,
	// and a version conflict — a remote request touching a tagged block —
	// squashes immediately (no commit-on-violate deferral). Everywhere
	// else the core takes the conventional RC stall.
	ModeLouvre
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeSelective:
		return "selective"
	case ModeContinuous:
		return "continuous"
	case ModeASO:
		return "aso"
	case ModeLouvre:
		return "louvre"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Config parameterizes the engine.
type Config struct {
	Mode  Mode
	Model consistency.Model
	// MaxCheckpoints is the number of in-flight speculations (1 for
	// INVISIFENCE-SELECTIVE's default, 2 for continuous and the two-
	// checkpoint selective variant of §6.4, up to 4 for ASO).
	MaxCheckpoints int
	// CoVTimeout is the commit-on-violate deferral window in cycles;
	// 0 selects the default abort-immediately policy. The paper evaluates
	// 4000 (§3.2).
	CoVTimeout uint64
	// MinChunk is the continuous mode's minimum chunk size in instructions
	// (~100, Figure 4).
	MinChunk int
	// ASOCkptInterval is the retired-instruction spacing of ASO's periodic
	// checkpoints.
	ASOCkptInterval int
	// ASOSSBCapacity is the Scalable Store Buffer's per-store capacity.
	ASOSSBCapacity int
	// ASODrainPerStore is ASO's commit cost in cycles per drained store,
	// during which the node blocks external requests.
	ASODrainPerStore uint64
}

// DefaultSelective returns the paper's highest-performing configuration:
// single checkpoint, abort-immediately.
func DefaultSelective(m consistency.Model) Config {
	return Config{Mode: ModeSelective, Model: m, MaxCheckpoints: 1}
}

// DefaultContinuous returns the continuous configuration of §4.2/§6.5.
func DefaultContinuous(cov bool) Config {
	c := Config{Mode: ModeContinuous, Model: consistency.SC, MaxCheckpoints: 2, MinChunk: 100}
	if cov {
		c.CoVTimeout = 4000
	}
	return c
}

// DefaultLouvre returns the Louvre-style versioned-ordering baseline:
// two version epochs in flight (current + draining), squash-on-conflict
// (no deferral window), release-boundary triggers only.
func DefaultLouvre() Config {
	return Config{Mode: ModeLouvre, Model: consistency.RC, MaxCheckpoints: 2}
}

// DefaultASO returns the ASO-like baseline configuration used for the
// Figure 11 comparison.
func DefaultASO() Config {
	return Config{
		Mode:             ModeASO,
		Model:            consistency.SC,
		MaxCheckpoints:   4,
		ASOCkptInterval:  64,
		ASOSSBCapacity:   64,
		ASODrainPerStore: 2,
	}
}

// Host is the machine state the engine manipulates; internal/node
// implements it.
type Host interface {
	// Now returns the current cycle.
	Now() uint64
	// CaptureCheckpoint snapshots architectural registers and PC.
	CaptureCheckpoint() ([isa.NumRegs]memtypes.Word, int)
	// RestoreCheckpoint flushes the pipeline and restores a snapshot.
	RestoreCheckpoint(regs [isa.NumRegs]memtypes.Word, pc int)
	// FlashClearSpecBits clears an epoch's bits in the L1 (commit).
	FlashClearSpecBits(epoch int)
	// CondInvalidateSpec invalidates the epoch's speculatively-written L1
	// lines and clears its bits (abort), returning lines invalidated.
	CondInvalidateSpec(epoch int) int
	// SBFlashInvalidate drops the epoch's speculative store buffer
	// entries (abort), returning entries dropped.
	SBFlashInvalidate(epoch int) int
	// SBEpochDrained reports whether every store of the epoch — and of
	// everything older, including non-speculative stores — has completed
	// into the cache (the §3.2 commit condition).
	SBEpochDrained(epoch int) bool
	// Stats exposes the node's accounting.
	Stats() *stats.NodeStats
}

type epochState struct {
	active  bool
	regs    [isa.NumRegs]memtypes.Word
	pc      int
	started uint64
	retired int  // instructions retired inside this epoch
	closed  bool // continuous: chunk closed, awaiting drain+commit
	stores  int  // stores retired inside this epoch (ASO SSB occupancy)
}

// Engine is one core's InvisiFence (or ASO) controller.
type Engine struct {
	cfg  Config
	host Host

	// epochs holds one slot per checkpoint the configuration allows: Begin
	// takes the lowest free slot and at most MaxCheckpoints are live, so
	// epoch indexes stay below MaxCheckpoints (nil when speculation is off).
	epochs []epochState
	order  []int // active epochs, oldest first

	// Forward progress: after an abort at least one instruction must
	// retire non-speculatively before a new speculation begins (§3.2).
	graceNeeded bool

	// haltRequested stops continuous mode from opening new chunks once the
	// program has halted, so outstanding speculation can drain and commit.
	haltRequested bool

	// earlyClose asks the chunk manager to close the open chunk at the
	// next opportunity regardless of the minimum size (commit-on-violate:
	// a deferred probe is waiting on this core's commit).
	earlyClose bool

	// ASO commit drain: external requests are parked until this cycle.
	commitBusyUntil uint64
}

// New creates an engine.
func New(cfg Config, host Host) *Engine { return new(Engine).Init(cfg, host) }

// Init builds e as an idle engine for cfg and returns it (DESIGN.md §2).
func (e *Engine) Init(cfg Config, host Host) *Engine {
	if cfg.MaxCheckpoints <= 0 {
		cfg.MaxCheckpoints = 1
	}
	if cfg.MaxCheckpoints > cache.MaxEpochs {
		panic(fmt.Sprintf("core: MaxCheckpoints %d exceeds MaxEpochs %d", cfg.MaxCheckpoints, cache.MaxEpochs))
	}
	slots := 0
	if cfg.Mode != ModeOff {
		slots = cfg.MaxCheckpoints
	}
	*e = Engine{cfg: cfg, host: host, epochs: memtypes.Resize(e.epochs, slots), order: e.order[:0]}
	return e
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Enabled reports whether any speculation policy is active.
func (e *Engine) Enabled() bool { return e.cfg.Mode != ModeOff }

// Continuous reports continuous-chunk operation.
func (e *Engine) Continuous() bool { return e.cfg.Mode == ModeContinuous }

// Speculating reports whether any checkpoint is live.
func (e *Engine) Speculating() bool { return len(e.order) > 0 }

// YoungestEpoch returns the epoch new work is tagged with, or -1.
func (e *Engine) YoungestEpoch() int {
	if len(e.order) == 0 {
		return -1
	}
	return e.order[len(e.order)-1]
}

// OldestEpoch returns the next epoch to commit, or -1.
func (e *Engine) OldestEpoch() int {
	if len(e.order) == 0 {
		return -1
	}
	return e.order[0]
}

// ActiveEpochs returns the live epochs, oldest first.
func (e *Engine) ActiveEpochs() []int { return e.order }

// EpochAge returns the position of an epoch in the active order (0 =
// oldest), or -1 if inactive.
func (e *Engine) EpochAge(epoch int) int {
	for i, idx := range e.order {
		if idx == epoch {
			return i
		}
	}
	return -1
}

// CommitBusyUntil reports the end of an ASO commit drain window; the node
// parks external requests until then.
func (e *Engine) CommitBusyUntil() uint64 { return e.commitBusyUntil }

// CanBegin reports whether a new speculation may start now.
func (e *Engine) CanBegin() bool {
	if !e.Enabled() || e.graceNeeded || e.haltRequested {
		return false
	}
	return len(e.order) < e.cfg.MaxCheckpoints
}

// Begin starts a new speculation epoch (register checkpoint). It returns
// the epoch index.
func (e *Engine) Begin() int {
	if !e.CanBegin() {
		panic("core: Begin without CanBegin")
	}
	slot := -1
	for i := range e.epochs {
		if !e.epochs[i].active {
			slot = i
			break
		}
	}
	if slot < 0 {
		panic("core: no free epoch slot")
	}
	regs, pc := e.host.CaptureCheckpoint()
	e.epochs[slot] = epochState{active: true, regs: regs, pc: pc, started: e.host.Now()}
	e.order = append(e.order, slot)
	e.host.Stats().Speculations++
	return slot
}

// OnRetireInstr updates per-epoch instruction counts, clears the forward-
// progress grace requirement, and takes ASO periodic checkpoints.
func (e *Engine) OnRetireInstr() {
	if e.graceNeeded && !e.Speculating() {
		// An instruction retired outside speculation: progress guaranteed.
		e.graceNeeded = false
	}
	y := e.YoungestEpoch()
	if y < 0 {
		return
	}
	e.epochs[y].retired++
	if e.cfg.Mode == ModeASO &&
		e.epochs[y].retired >= e.cfg.ASOCkptInterval && e.CanBegin() {
		e.Begin()
	}
}

// OnSpecStore counts a store into the youngest epoch's ASO SSB occupancy
// (the only mode that reads it; elsewhere the call changes nothing). It
// returns false if the ASO SSB is full (the store must stall).
func (e *Engine) OnSpecStore() bool {
	y := e.YoungestEpoch()
	if y < 0 || e.cfg.Mode != ModeASO {
		return true
	}
	if e.SSBWouldBlock() {
		return false
	}
	e.epochs[y].stores++
	return true
}

// SSBWouldBlock reports, read-only, whether OnSpecStore would refuse the
// next speculative store (ASO's Scalable Store Buffer at capacity; always
// false for the other modes, which bound stores through the coalescing
// buffer instead). The node folds this into its idle-skip horizon: an
// SSB-full retirement attempt is refused before anything is counted, so
// the wait is pure.
func (e *Engine) SSBWouldBlock() bool {
	if e.cfg.Mode != ModeASO || len(e.order) == 0 {
		return false
	}
	total := 0
	for _, idx := range e.order {
		total += e.epochs[idx].stores
	}
	return total >= e.cfg.ASOSSBCapacity
}

// Tick runs the per-cycle policy work: opportunistic commits (oldest
// first), continuous chunk management.
func (e *Engine) Tick() {
	// Opportunistic commit: constant-time, no arbitration (§4.1).
	for e.oldestCommittable() {
		e.commitEpoch(e.order[0])
	}
	if e.cfg.Mode == ModeContinuous {
		e.manageChunks()
	}
}

// oldestCommittable reports whether the oldest epoch commits now: every
// store of it has drained and, in continuous mode, its chunk is closed
// (the open chunk keeps executing).
func (e *Engine) oldestCommittable() bool {
	if len(e.order) == 0 {
		return false
	}
	o := e.order[0]
	return (e.cfg.Mode != ModeContinuous || e.epochs[o].closed) && e.host.SBEpochDrained(o)
}

// chunkReady reports whether manageChunks would act now: open a chunk
// when none is live, or close the open one — once it has reached the
// minimum size or a deferred probe asked for an early close — and
// pipeline a new checkpoint behind it.
func (e *Engine) chunkReady() bool {
	if !e.Speculating() {
		return e.CanBegin()
	}
	ep := &e.epochs[e.YoungestEpoch()]
	return !ep.closed && (ep.retired >= e.cfg.MinChunk || e.earlyClose) &&
		len(e.order) < e.cfg.MaxCheckpoints && !e.graceNeeded
}

// NextEvent returns the earliest future cycle at which the engine's
// per-cycle policy work (Tick) would change state on its own: an
// opportunistic commit whose drain condition already holds, or a continuous
// chunk open/close whose trigger is already satisfied — the two predicates
// Tick acts on (oldestCommittable, chunkReady). Everything else the engine
// does is driven by retirements, probes, and store-buffer drains — events
// owned by other components. The hint follows the simulator-wide
// monotonicity contract: read-only, never later than the true next state
// change, valid until the engine's (or host's drain) state next changes.
func (e *Engine) NextEvent(now uint64) uint64 {
	if e.oldestCommittable() || (e.cfg.Mode == ModeContinuous && e.chunkReady()) {
		return now + 1
	}
	return memtypes.NoEvent
}

func (e *Engine) commitEpoch(epoch int) {
	e.host.FlashClearSpecBits(epoch)
	e.host.Stats().CommitEpoch(epoch)
	if e.cfg.Mode == ModeASO {
		drain := uint64(e.epochs[epoch].stores) * e.cfg.ASODrainPerStore
		until := e.host.Now() + drain
		if until > e.commitBusyUntil {
			e.commitBusyUntil = until
		}
	}
	e.epochs[epoch].active = false
	// Shift in place: e.order[1:] would walk the slice off its backing array
	// and force Begin's append to re-allocate every MaxCheckpoints commits.
	copy(e.order, e.order[1:])
	e.order = e.order[:len(e.order)-1]
}

// manageChunks opens and closes continuous-mode chunks.
func (e *Engine) manageChunks() {
	if !e.chunkReady() {
		return
	}
	if y := e.YoungestEpoch(); y >= 0 {
		// Close the chunk and pipeline a new checkpoint behind it.
		e.epochs[y].closed = true
		e.earlyClose = false
	}
	e.Begin()
}

// RequestHalt closes any open chunk and stops new speculations so the node
// can quiesce after the program halts.
func (e *Engine) RequestHalt() {
	e.haltRequested = true
	if y := e.YoungestEpoch(); y >= 0 {
		e.epochs[y].closed = true
	}
}

// AbortFrom aborts the given epoch and every younger one: speculative
// store-buffer entries are flash-invalidated, speculatively-written lines
// conditionally invalidated, bits cleared, and the register checkpoint of
// the oldest aborted epoch restored (§3.2). Staged cycles become Violation
// time.
func (e *Engine) AbortFrom(epoch int) {
	age := e.EpochAge(epoch)
	if age < 0 {
		panic("core: AbortFrom inactive epoch")
	}
	aborted := e.order[age:]
	st := e.host.Stats()
	for _, idx := range aborted {
		e.host.SBFlashInvalidate(idx)
		e.host.CondInvalidateSpec(idx)
		st.AbortEpoch(idx)
		e.epochs[idx].active = false
	}
	oldest := &e.epochs[epoch]
	e.host.RestoreCheckpoint(oldest.regs, oldest.pc)
	e.order = e.order[:age]
	e.graceNeeded = true
	// A Halt observed during the aborted speculation was itself
	// speculative; execution resumes from the checkpoint.
	e.haltRequested = false
}

// AbortAll aborts every active epoch.
func (e *Engine) AbortAll() {
	if len(e.order) > 0 {
		e.AbortFrom(e.order[0])
	}
}

// TryCommitAllNow attempts to commit every active epoch immediately (the
// eviction-pressure path). It returns true if nothing remains speculative.
func (e *Engine) TryCommitAllNow() bool {
	for len(e.order) > 0 {
		o := e.order[0]
		if e.cfg.Mode == ModeContinuous && !e.epochs[o].closed {
			e.epochs[o].closed = true
		}
		if !e.host.SBEpochDrained(o) {
			return false
		}
		e.host.Stats().ForcedCommits++
		e.commitEpoch(o)
	}
	return true
}

// DeferAllowed reports whether a conflicting probe may be deferred under
// commit-on-violate rather than aborting immediately.
func (e *Engine) DeferAllowed() bool { return e.cfg.CoVTimeout > 0 }

// NotifyDeferredProbe tells the engine an external request is parked
// waiting on this core's speculation. Commit-on-violate's purpose is to
// give the speculation "an opportunity to commit instead of immediately
// aborting" (§3.2); in continuous mode that requires closing the open
// chunk early — below the minimum chunk size — so the drain-then-commit
// path can complete within the deferral window rather than riding it to
// the abort timeout.
func (e *Engine) NotifyDeferredProbe() {
	if e.cfg.Mode != ModeContinuous {
		return
	}
	e.earlyClose = true
	e.manageChunks()
}

// CoVDeadline computes the deferral deadline for a probe arriving now.
func (e *Engine) CoVDeadline(now uint64) uint64 { return now + e.cfg.CoVTimeout }

// SpeculatesOn describes the Figure 4 trigger set for this configuration.
func (e *Engine) SpeculatesOn() string {
	switch e.cfg.Mode {
	case ModeSelective, ModeASO:
		switch e.cfg.Model {
		case consistency.SC:
			return "all memory reorderings"
		case consistency.TSO:
			return "store/atomic reorderings, fences"
		case consistency.RMO:
			return "fences, atomics"
		case consistency.RC:
			return "releases, atomics"
		}
	case ModeContinuous:
		return "continuous chunks"
	case ModeLouvre:
		return "release boundaries (versioned ordering)"
	}
	return "nothing"
}
