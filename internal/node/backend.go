package node

import (
	"invisifence/internal/cache"
	"invisifence/internal/coherence"
	"invisifence/internal/consistency"
	ifcore "invisifence/internal/core"
	"invisifence/internal/cpu"
	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
	"invisifence/internal/storebuffer"
)

// ---------------------------------------------------------------------
// cpu.Backend: the load path.
// ---------------------------------------------------------------------

// StartLoad implements cpu.Backend. Value priority: post-retirement store
// buffer forwarding, then L1, then an outstanding-miss fill.
func (n *Node) StartLoad(tag uint64, addr memtypes.Addr) cpu.LoadResult {
	if n.fifoSB != nil {
		if v, ok := n.fifoSB.Forward(addr); ok {
			return cpu.LoadResult{Status: cpu.LoadForwarded, Value: v, ReadyAt: n.now + 1}
		}
	} else if v, ok := n.coalSB.Forward(addr); ok {
		return cpu.LoadResult{Status: cpu.LoadForwarded, Value: v, ReadyAt: n.now + 1}
	}
	block := memtypes.BlockAddr(addr)
	if line := n.l1.Lookup(addr); line != nil {
		n.markExecRead(line) // continuous mode marks at execution (§4.2)
		return cpu.LoadResult{
			Status:  cpu.LoadHit,
			Value:   line.Data[memtypes.WordIndex(addr)],
			ReadyAt: n.now + n.l1.HitLatency(),
		}
	}
	if m, ok := n.mshrs[block]; ok {
		m.waiters = append(m.waiters, loadWaiter{tag: tag, addr: addr})
		return cpu.LoadResult{Status: cpu.LoadMiss}
	}
	if !n.requestBlock(block, false) {
		return cpu.LoadResult{Status: cpu.LoadRetry}
	}
	n.mshrs[block].waiters = append(n.mshrs[block].waiters, loadWaiter{tag: tag, addr: addr})
	return cpu.LoadResult{Status: cpu.LoadMiss}
}

// ---------------------------------------------------------------------
// cpu.Backend: retirement policy (Figure 2 rules, Figure 4 triggers).
//
// Every retirement attempt is classify-then-apply. The classify* methods
// are read-only: from the head's operands and the node's state they decide
// what the attempt does, as a headPlan. apply performs exactly the
// mutations the plan names. NextEvent and SkipCycles classify the ROB head
// the same way (Node.headPlan), so each rule and trigger is written once,
// here, and a new retirement path is one more classify case.
// ---------------------------------------------------------------------

// planStep is the mutation sequence one retirement attempt performs.
type planStep uint8

const (
	stepRetire    planStep = iota // retire; nothing else changes
	stepStall                     // stay at the head; nothing else changes
	stepFullStall                 // stay at the head, counting one FullStall on plan.stalls
	stepBegin                     // begin a speculation, then re-classify on the speculative path
	stepRequest                   // request the block with ownership, stay at the head
	stepReplay                    // snoop the block: the load's line left the L1, replay it
	stepPush                      // push into the FIFO store buffer, retire
	stepWrite                     // write the L1 line directly, retire
	stepBuffer                    // store into the coalescing buffer, retire
)

// waitKind is what the next attempt of a plan changes: all the event loop
// needs to know about it.
type waitKind uint8

const (
	waitMutates   waitKind = iota // it changes state: the node must tick
	waitPure                      // nothing, until an event tracked elsewhere (drain, fill, cleaning, commit)
	waitFullStall                 // only one FullStalls bump on plan.stalls, which SkipCycles replays
)

// headPlan is the classification of one retirement attempt.
type headPlan struct {
	step planStep
	wait waitKind
	why  cpu.StallReason // StallNone exactly when the step retires
	line *cache.Line     // the head's L1 line, looked up once
	// stalls is the FullStalls counter of the buffer a stepFullStall names.
	stalls *uint64
	// markRead first sets the speculatively-read bit on line (speculative
	// loads, and the load half of a speculative atomic); clean then starts
	// a cleaning writeback of the block (§3.2); request asks for ownership
	// after a stepBuffer store.
	markRead, clean, request bool
	// val is the value a store step writes; old is the value an atomic
	// read, its result.
	val, old memtypes.Word
}

// stall plans a pure wait reporting why.
func stall(why cpu.StallReason) headPlan {
	return headPlan{step: stepStall, why: why, wait: waitPure}
}

// fullStall plans a store blocked on a full buffer, counting its stalls.
func fullStall(stalls *uint64) headPlan {
	return headPlan{step: stepFullStall, why: cpu.StallSBFull, wait: waitFullStall, stalls: stalls}
}

// canTriggerSpeculation reports whether a checkpoint-based speculation may
// begin now at an ordering stall; release marks a st.rel blocked on a
// store-buffer drain (RC). Selective mode (and the ASO baseline)
// speculates at every ordering stall (Figure 4); Louvre-style versioned
// ordering opens a version epoch only at release boundaries and takes the
// conventional stall everywhere else.
func (n *Node) canTriggerSpeculation(release bool) bool {
	switch n.engine.Config().Mode {
	case ifcore.ModeSelective, ifcore.ModeASO:
	case ifcore.ModeLouvre:
		if !release {
			return false
		}
	default:
		return false
	}
	return n.engine.CanBegin()
}

// drainOrBegin is the Figure 4 choice at a store-buffer ordering stall:
// speculate past it if the trigger may fire, else wait for the drain.
func (n *Node) drainOrBegin(release bool) headPlan {
	if n.canTriggerSpeculation(release) {
		return headPlan{step: stepBegin}
	}
	return stall(cpu.StallSBDrain)
}

// requestPlan waits for a block the head needs. requestBlock does nothing
// while the block's miss is outstanding, so only the first attempt (the
// one that allocates the miss) mutates.
func (n *Node) requestPlan(block memtypes.Addr, why cpu.StallReason) headPlan {
	p := headPlan{step: stepRequest, why: why}
	if _, ok := n.mshrs[block]; ok {
		p.wait = waitPure
	}
	return p
}

// RetireLoad implements cpu.Backend.
func (n *Node) RetireLoad(op isa.Op, addr memtypes.Addr, fromL1 bool) (bool, cpu.StallReason) {
	p := n.classifyLoad(op, addr, fromL1)
	if p.step == stepBegin {
		n.engine.Begin()
		p = n.classifyLoad(op, addr, fromL1)
	}
	return n.apply(p, addr)
}

// classifyLoad is RetireLoad's decision. Acquiring loads (ld.acq) need no
// extra machinery: in-order retirement plus load-queue snooping already
// order a retired load before everything younger, which is exactly the
// acquire edge RC requires.
func (n *Node) classifyLoad(op isa.Op, addr memtypes.Addr, fromL1 bool) headPlan {
	if n.engine.Speculating() {
		// Inside a speculation the load marks the speculatively-read bit at
		// retirement (selective/ASO, §4.1; continuous marked at execution,
		// §4.2, but marking again closes the gap for loads that executed in
		// the brief non-speculative window after an abort). Store-buffer-
		// forwarded values need no bit: they are the core's own not-yet-
		// visible stores, protected by the written state.
		if !fromL1 {
			return headPlan{}
		}
		line := n.l1.Peek(addr)
		if line == nil {
			// The line left the L1 between execution and retirement (racing
			// same-cycle eviction). Replay the load rather than retire a
			// value that is no longer protected.
			return headPlan{step: stepReplay, why: cpu.StallOther}
		}
		return headPlan{line: line, markRead: true}
	}
	if consistency.Orders(n.model, consistency.Store, consistency.ClassOf(op)) && !n.sbEmpty() {
		// SC: a load may not retire past outstanding stores -- unless
		// InvisiFence speculates instead (§4.1).
		return n.drainOrBegin(false)
	}
	return headPlan{}
}

// RetireStore implements cpu.Backend.
func (n *Node) RetireStore(op isa.Op, addr memtypes.Addr, val memtypes.Word) (bool, cpu.StallReason) {
	p := n.classifyStore(op, addr)
	if p.step == stepBegin {
		n.engine.Begin()
		p = n.classifyStore(op, addr)
	}
	p.val = val
	return n.apply(p, addr)
}

// classifyStore is RetireStore's decision.
func (n *Node) classifyStore(op isa.Op, addr memtypes.Addr) headPlan {
	if n.fifoSB != nil {
		// Conventional SC/TSO: word-granularity FIFO.
		if n.fifoSB.Full() {
			return fullStall(&n.fifoSB.FullStalls)
		}
		return headPlan{step: stepPush}
	}
	if n.engine.Speculating() {
		return n.classifySpecStore(addr)
	}
	// Not speculating, coalescing buffer. An unordered buffer may not hold
	// stores the model orders before this one (every store under SC/TSO,
	// a st.rel under RC): retiring with a non-empty buffer triggers
	// speculation (Figure 4's "store/atomic reorderings", Invisi_rc's
	// release trigger, Louvre's version-epoch open), or waits for the
	// drain (the forward-progress grace window).
	if consistency.Orders(n.model, consistency.Store, consistency.ClassOf(op)) && !n.sbEmpty() {
		return n.drainOrBegin(op.IsRelease())
	}
	// The baseline RMO path: store hits retire directly into the L1;
	// misses coalesce in the store buffer. A store may only bypass the
	// buffer if the buffer holds nothing for its block: buffered entries
	// drain in age order, and a direct write jumping ahead of a buffered
	// older store would later be overwritten by it.
	block := memtypes.BlockAddr(addr)
	line := n.l1.Peek(addr)
	if line != nil && line.State.Writable() && !n.coalSB.HasBlock(block) {
		if _, cleaning := n.cleanings[block]; !cleaning {
			return headPlan{step: stepWrite, line: line}
		}
	}
	if !n.coalSB.CanStore(block, storebuffer.NonSpecEpoch) {
		return fullStall(&n.coalSB.FullStalls)
	}
	return headPlan{step: stepBuffer, line: line, request: true}
}

// classifySpecStore is the §3.2 speculative store path.
func (n *Node) classifySpecStore(addr memtypes.Addr) headPlan {
	y := n.engine.YoungestEpoch()
	block := memtypes.BlockAddr(addr)
	line := n.l1.Peek(addr)
	_, cleaning := n.cleanings[block]
	clean, direct := false, false
	if line != nil && line.State.Writable() && !cleaning && !n.coalSB.HasBlock(block) {
		// (The buffer must hold nothing for this block: a direct write
		// jumping ahead of a buffered older-epoch store would later be
		// overwritten when that entry drains.)
		if line.State == cache.Modified && !line.SpecWrittenAny() {
			// Non-speculatively dirty: the pre-speculative value must
			// survive abort. Clean-writeback in the background; the store
			// waits in the buffer meanwhile (§3.2).
			clean = true
		} else {
			// Written by an older in-flight checkpoint: hold in the buffer
			// until that checkpoint commits (§3.1).
			direct = !n.heldByOlderEpoch(line, y)
		}
	}
	var p headPlan
	switch {
	case n.engine.SSBWouldBlock():
		p = stall(cpu.StallSBFull) // ASO SSB full: refused before anything is counted
	case direct:
		p = headPlan{step: stepWrite}
	case n.coalSB.CanStore(block, y) || n.engine.Config().Mode == ifcore.ModeASO:
		// Under ASO the store counts into the SSB before the push, so even
		// a push that fails on a full buffer mutates.
		p = headPlan{step: stepBuffer, request: line == nil || !line.State.Writable()}
	default:
		p = fullStall(&n.coalSB.FullStalls)
	}
	p.line, p.clean = line, clean
	if clean {
		p.wait = waitMutates
	}
	return p
}

// heldByOlderEpoch reports whether an older active checkpoint wrote this
// line.
func (n *Node) heldByOlderEpoch(line *cache.Line, y int) bool {
	for _, e := range n.engine.ActiveEpochs() {
		if e == y {
			return false
		}
		if line.SpecWritten(e) {
			return true
		}
	}
	return false
}

// RetireAtomic implements cpu.Backend.
func (n *Node) RetireAtomic(op isa.Op, addr memtypes.Addr, opA, opB memtypes.Word) (bool, memtypes.Word, cpu.StallReason) {
	p := n.classifyAtomic(op, addr, opA, opB, true)
	if p.step == stepBegin {
		n.engine.Begin()
		p = n.classifyAtomic(op, addr, opA, opB, true)
	}
	if ok, why := n.apply(p, addr); !ok {
		return false, 0, why
	}
	return true, p.old, cpu.StallNone
}

// classifyAtomic is RetireAtomic's decision: the conventional Figure 2
// rules, or the §3.2 load+store decomposition under speculation. opsOK
// reports that opA/opB are known; without them the outcome of a
// speculative atomic's store half is unknown and it classifies as
// mutating.
func (n *Node) classifyAtomic(op isa.Op, addr memtypes.Addr, opA, opB memtypes.Word, opsOK bool) headPlan {
	if n.engine.Speculating() {
		return n.classifySpecAtomic(op, addr, opA, opB, opsOK)
	}
	if consistency.Orders(n.model, consistency.Store, consistency.Atomic) && !n.sbEmpty() {
		// SC/TSO (and RC, whose atomics are synchronization accesses):
		// drain before the atomic -- or speculate (Figure 4).
		return n.drainOrBegin(false)
	}
	block := memtypes.BlockAddr(addr)
	line := n.l1.Peek(addr)
	if line == nil {
		return n.requestPlan(block, cpu.StallOther) // data miss
	}
	if !line.State.Writable() {
		// Ownership wait ("complete store", Figure 2). Where the
		// conventional buffer is coalescing (RMO, RC) this is the Figure 4
		// atomic trigger.
		if consistency.ConventionalSB(n.model) == consistency.SBCoalescingBlock &&
			n.canTriggerSpeculation(false) {
			return headPlan{step: stepBegin}
		}
		return n.requestPlan(block, cpu.StallSBDrain) // atomic-induced ordering stall (Fig. 1)
	}
	if _, cleaning := n.cleanings[block]; cleaning {
		return stall(cpu.StallOther)
	}
	if n.coalSB != nil && n.coalSB.HasBlock(block) {
		// A buffered store to this block must drain first (RMO permits a
		// non-empty buffer at atomics); the direct RMW may not jump ahead
		// of it in the block's age order.
		return stall(cpu.StallSBDrain)
	}
	p := headPlan{line: line, old: line.Data[memtypes.WordIndex(addr)]}
	if nv, doWrite := cpu.AtomicApply(op, p.old, opA, opB); doWrite {
		p.step, p.val = stepWrite, nv
	}
	return p
}

// classifySpecAtomic treats the atomic as a load+store pair contained in
// one speculation (§3.2).
func (n *Node) classifySpecAtomic(op isa.Op, addr memtypes.Addr, opA, opB memtypes.Word, opsOK bool) headPlan {
	// Load half. Unlike a plain load, an atomic's read must stay adjacent
	// to its paired write in the global order, so it must always pin a
	// readable L1 copy with the speculatively-read bit — even when the
	// value itself forwards from the store buffer. Without the bit, a
	// remote write arriving between a buffered own-store and commit would
	// go undetected and break read-modify-write atomicity.
	line := n.l1.Peek(addr)
	if line == nil {
		return n.requestPlan(memtypes.BlockAddr(addr), cpu.StallOther) // need the data itself
	}
	if !opsOK {
		return headPlan{}
	}
	old := line.Data[memtypes.WordIndex(addr)]
	if v, ok := n.coalSB.Forward(addr); ok {
		old = v
	}
	p := headPlan{} // a failed CAS retires read-only
	nv, doWrite := cpu.AtomicApply(op, old, opA, opB)
	if doWrite {
		p = n.classifySpecStore(addr) // the store half
	}
	p.line, p.markRead, p.val, p.old = line, true, nv, old
	if !line.SpecRead(n.engine.YoungestEpoch()) {
		p.wait = waitMutates // the attempt sets the read bit
	}
	return p
}

// RetireFence implements cpu.Backend.
func (n *Node) RetireFence() (bool, cpu.StallReason) {
	p := n.classifyFence()
	if p.step == stepBegin {
		n.engine.Begin()
		p = n.classifyFence()
	}
	return n.apply(p, 0)
}

// classifyFence is RetireFence's decision: fences retire freely inside a
// speculation (§3.2); conventionally they drain the store buffer.
func (n *Node) classifyFence() headPlan {
	if n.engine.Speculating() || n.sbEmpty() {
		return headPlan{}
	}
	return n.drainOrBegin(false)
}

// apply performs exactly the mutations plan p names for the head at addr,
// in order, and reports whether the instruction retired. Stores carry the
// youngest epoch: storebuffer.NonSpecEpoch (-1) when not speculating.
func (n *Node) apply(p headPlan, addr memtypes.Addr) (bool, cpu.StallReason) {
	y := n.engine.YoungestEpoch()
	block := memtypes.BlockAddr(addr)
	if p.markRead {
		n.l1.MarkSpecRead(p.line, y)
	}
	if p.clean {
		n.startCleaning(block)
	}
	if coherence.TraceOn() && (p.step == stepWrite || p.step == stepBuffer || p.step == stepFullStall) {
		coherence.TraceEvent(n.now, addr, "node%d retire store val=%d epoch=%d step=%d", n.id, p.val, y, p.step)
	}
	switch p.step {
	case stepFullStall:
		*p.stalls++
	case stepRequest:
		n.requestBlock(block, true)
	case stepReplay:
		n.core.SnoopBlock(block)
	case stepPush:
		n.fifoSB.Push(addr, p.val)
	case stepWrite:
		n.engine.OnSpecStore() // ASO SSB occupancy; classify ruled out a refusal
		p.line.Data[memtypes.WordIndex(addr)] = p.val
		p.line.State = cache.Modified
		if y >= 0 {
			n.l1.MarkSpecWritten(p.line, y)
		}
	case stepBuffer:
		n.engine.OnSpecStore()
		if !n.coalSB.Store(addr, p.val, y) {
			return false, cpu.StallSBFull // ASO: counted into the SSB, then refused
		}
		if p.request {
			n.requestBlock(block, true)
		}
	}
	return p.why == cpu.StallNone, p.why
}

// OnRetireInstr implements cpu.Backend.
func (n *Node) OnRetireInstr() {
	n.st.Retired++
	n.engine.OnRetireInstr()
}

// ---------------------------------------------------------------------
// core.Host: machine-state primitives for the engine.
// ---------------------------------------------------------------------

// CaptureCheckpoint implements core.Host.
func (n *Node) CaptureCheckpoint() ([isa.NumRegs]memtypes.Word, int) {
	var regs [isa.NumRegs]memtypes.Word
	for r := 0; r < isa.NumRegs; r++ {
		regs[r] = n.core.ArchReg(isa.Reg(r))
	}
	if coherence.TraceOn() {
		coherence.TraceAlways(n.now, "node%d CHECKPOINT pc=%d r2=%d", n.id, n.core.ArchPC(), regs[2])
	}
	return regs, n.core.ArchPC()
}

// RestoreCheckpoint implements core.Host (the abort path's pipeline flush
// and register restore).
func (n *Node) RestoreCheckpoint(regs [isa.NumRegs]memtypes.Word, pc int) {
	if coherence.TraceOn() {
		coherence.TraceAlways(n.now, "node%d RESTORE pc=%d r2=%d", n.id, pc, regs[2])
	}
	n.core.FlushAll(regs, pc)
}

// FlashClearSpecBits implements core.Host (commit).
func (n *Node) FlashClearSpecBits(epoch int) {
	if coherence.TraceOn() {
		coherence.TraceAlways(n.now, "node%d COMMIT epoch=%d", n.id, epoch)
	}
	n.l1.FlashClearSpec(epoch)
}

// CondInvalidateSpec implements core.Host (abort).
func (n *Node) CondInvalidateSpec(epoch int) int {
	k := n.l1.ConditionalInvalidate(epoch)
	if coherence.TraceOn() {
		coherence.TraceAlways(n.now, "node%d ABORT epoch=%d invalidated=%d pc->%d", n.id, epoch, k, n.core.ArchPC())
	}
	return k
}

// SBFlashInvalidate implements core.Host (abort).
func (n *Node) SBFlashInvalidate(epoch int) int {
	if n.coalSB == nil {
		return 0
	}
	return n.coalSB.FlashInvalidateSpec(epoch)
}

// SBEpochDrained implements core.Host: the §3.2 commit condition. All
// stores prior to and within the epoch must have completed into the cache:
// no non-speculative entries, no entries of this epoch. (Entries of younger
// epochs may remain: the two-checkpoint case.)
func (n *Node) SBEpochDrained(epoch int) bool {
	if n.coalSB == nil {
		return true
	}
	return n.coalSB.CountEpoch(storebuffer.NonSpecEpoch) == 0 && n.coalSB.CountEpoch(epoch) == 0
}
