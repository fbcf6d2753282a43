package node

import (
	"invisifence/internal/cache"
	"invisifence/internal/coherence"
	"invisifence/internal/memtypes"
	"invisifence/internal/storebuffer"
)

// blockLocked reports whether a block's cache lines must not be evicted:
// an outstanding miss, pending store-buffer entries, or a cleaning
// writeback in progress all pin it.
func (n *Node) blockLocked(block memtypes.Addr) bool {
	if _, ok := n.mshrs[block]; ok {
		return true
	}
	if _, ok := n.cleanings[block]; ok {
		return true
	}
	if n.coalSB != nil && n.coalSB.HasBlock(block) {
		return true
	}
	if n.fifoSB != nil {
		if e := n.fifoSB.Head(); e != nil && memtypes.BlockAddr(e.Addr) == block {
			return true
		}
	}
	return false
}

func (n *Node) l1SetIndex(a memtypes.Addr) uint64 {
	return (uint64(a) >> memtypes.BlockShift) % uint64(n.l1.Sets())
}

// canAllocateFill enforces the per-set way-reservation rule that keeps
// fills deadlock-free: outstanding fills plus pinned lines in an L1 set may
// not exceed its associativity.
func (n *Node) canAllocateFill(block memtypes.Addr) bool {
	if len(n.mshrs) >= n.maxMSHRs {
		return false
	}
	return n.setPending[n.l1SetIndex(block)] < n.l1.Ways()
}

// allocMSHR creates and tracks a miss for block, reusing a recycled entry
// when one is free (the waiter slice keeps its capacity across reuse, so a
// steady miss stream allocates nothing). Callers must have checked
// canAllocateFill.
func (n *Node) allocMSHR(block memtypes.Addr, wantX bool) *mshrEntry {
	var m *mshrEntry
	if k := len(n.mshrFree); k > 0 {
		m = n.mshrFree[k-1]
		n.mshrFree = n.mshrFree[:k-1]
		w := m.waiters[:0]
		*m = mshrEntry{block: block, wantX: wantX, waiters: w}
	} else {
		m = &mshrEntry{block: block, wantX: wantX}
	}
	put(&n.mshrs, block, m)
	n.mshrOrder = append(n.mshrOrder, m)
	set := n.l1SetIndex(block)
	put(&n.setPending, set, n.setPending[set]+1)
	return m
}

func (n *Node) freeMSHR(m *mshrEntry) {
	delete(n.mshrs, m.block)
	for i, e := range n.mshrOrder {
		if e == m {
			n.mshrOrder = append(n.mshrOrder[:i], n.mshrOrder[i+1:]...)
			break
		}
	}
	n.mshrFree = append(n.mshrFree, m)
	n.setPending[n.l1SetIndex(m.block)]--
	if n.fillHoldCycles > 0 {
		// Livelock avoidance: give the core a short exclusive window on
		// the freshly arrived line before external probes may take it.
		put(&n.fillHold, m.block, n.now+n.fillHoldCycles)
		if len(n.fillHold) > 1024 {
			//lint:allow determinism deletes exactly the expired holds, in any order
			for b, until := range n.fillHold {
				if n.now >= until {
					delete(n.fillHold, b)
				}
			}
		}
	}
}

// issueRequests sends protocol requests for allocated-but-unsent MSHRs and
// decides between GetX and Upgrade by the local copy's state.
func (n *Node) issueRequests() {
	for _, m := range n.mshrOrder {
		if m.sent || m.fromL2 {
			continue
		}
		l2line := n.l2.Peek(m.block)
		switch {
		case !m.wantX:
			n.send(n.home(m.block), coherence.Msg{Kind: coherence.GetS, Addr: m.block})
		case l2line != nil && l2line.State == cache.Shared:
			m.upgrade = true
			n.send(n.home(m.block), coherence.Msg{Kind: coherence.Upgrade, Addr: m.block})
		default:
			n.send(n.home(m.block), coherence.Msg{Kind: coherence.GetX, Addr: m.block})
		}
		m.sent = true
	}
}

// requestBlock ensures a miss request is outstanding for block. wantX asks
// for write permission. It returns false if no MSHR could be allocated.
func (n *Node) requestBlock(block memtypes.Addr, wantX bool) bool {
	if _, ok := n.mshrs[block]; ok {
		// An upgrade of intent (S->X) while a GetS is in flight is handled
		// after the fill completes; the drain loop re-requests.
		return true
	}
	// Local L2 can serve misses that don't need an ownership change.
	l2line := n.l2.Peek(block)
	if l2line != nil && (l2line.State.Writable() || !wantX) {
		if !n.canAllocateFill(block) {
			return false
		}
		m := n.allocMSHR(block, wantX)
		m.fromL2 = true
		m.readyAt = n.now + n.l2.HitLatency()
		return true
	}
	if !n.canAllocateFill(block) {
		return false
	}
	n.allocMSHR(block, wantX)
	return true
}

// completeL2Serves finishes L2->L1 refills whose latency elapsed.
func (n *Node) completeL2Serves() {
	for i := 0; i < len(n.mshrOrder); i++ {
		m := n.mshrOrder[i]
		if !m.fromL2 || n.now < m.readyAt {
			continue
		}
		l2line := n.l2.Peek(m.block)
		if l2line == nil {
			// The L2 copy was invalidated while the refill was in flight
			// (external GetX). Fall back to a remote request.
			m.fromL2 = false
			m.sent = false
			continue
		}
		if m.wantX && !l2line.State.Writable() {
			m.fromL2 = false
			m.sent = false
			continue
		}
		st := cache.Shared
		if l2line.State.Writable() {
			st = cache.Exclusive
		}
		if !n.installL1(m.block, l2line.Data, st) {
			continue // retry next cycle (no victim yet)
		}
		n.L2HitFills++
		n.wakeWaiters(m)
		n.freeMSHR(m)
		i--
	}
}

// wakeWaiters delivers fill data to loads parked on the MSHR. In continuous
// mode the speculatively-read bit is set at fill (execution) time, §4.2.
func (n *Node) wakeWaiters(m *mshrEntry) {
	if len(m.waiters) == 0 {
		return
	}
	line := n.l1.Peek(m.block)
	n.invariantAddr(line != nil, "wake without L1 line", m.block)
	for _, w := range m.waiters {
		val := line.Data[memtypes.WordIndex(w.addr)]
		n.core.FillLoad(w.tag, val)
		n.markExecRead(line)
	}
	m.waiters = m.waiters[:0] // keep capacity: the entry recycles
}

// markExecRead sets the execution-time speculatively-read bit (continuous
// mode only; selective marks at retirement).
func (n *Node) markExecRead(line *cache.Line) {
	if n.engine.Continuous() {
		if y := n.engine.YoungestEpoch(); y >= 0 {
			n.l1.MarkSpecRead(line, y)
		}
	}
}

// installL1 places a block into the L1, evicting as needed. Returns false
// if no victim is available yet (caller retries next cycle).
func (n *Node) installL1(block memtypes.Addr, data memtypes.BlockData, st cache.LineState) bool {
	if line := n.l1.Peek(block); line != nil {
		// Refresh (e.g., GrantX upgrades handled elsewhere); keep data.
		return true
	}
	v := n.l1.VictimFiltered(block, false, n.blockLocked)
	if v == nil {
		// Every non-pinned way is speculative: the paper's
		// eviction-forces-commit rule. Commit if the store buffer has
		// drained; otherwise abort to guarantee forward progress.
		if !n.engine.TryCommitAllNow() {
			n.engine.AbortAll()
		}
		v = n.l1.VictimFiltered(block, false, n.blockLocked)
		if v == nil {
			return false
		}
	}
	if v.State.Valid() {
		n.evictL1Line(v)
	}
	n.l1.Install(v, block, data, st)
	return true
}

// evictL1Line removes a (non-speculative) line from the L1, merging dirty
// data into the L2 and replaying any in-window loads that consumed it.
func (n *Node) evictL1Line(v *cache.Line) {
	n.invariantAddr(!v.SpecAny(), "evicting speculative L1 line", v.Addr)
	addr := v.Addr
	if v.State == cache.Modified {
		l2line := n.l2.Peek(addr)
		n.invariantAddr(l2line != nil, "L1 dirty evict without L2 line (inclusion)", addr)
		l2line.Data = v.Data
		l2line.State = cache.Modified
	}
	n.l1.Invalidate(addr)
	if n.snoopLQ {
		n.core.SnoopBlock(addr)
	}
}

// installL2 places a block into the L2 (and nothing else; L1 follows).
// Returns false if no victim is available yet.
func (n *Node) installL2(block memtypes.Addr, data memtypes.BlockData, st cache.LineState) bool {
	if line := n.l2.Peek(block); line != nil {
		line.Data = data
		line.State = st
		return true
	}
	v := n.l2.VictimFiltered(block, true, n.blockLocked)
	if v == nil {
		return false
	}
	if v.State.Valid() {
		if !n.evictL2Line(v) {
			return false
		}
	}
	n.l2.Install(v, block, data, st)
	return true
}

// evictL2Line evicts an L2 line: back-invalidates the L1 (inclusion),
// resolving speculative pins by commit-or-abort, and writes Exclusive/
// Modified blocks back to the home directory via the writeback buffer.
// Returns false if the eviction cannot proceed yet.
func (n *Node) evictL2Line(v *cache.Line) bool {
	addr := v.Addr
	if l1line := n.l1.Peek(addr); l1line != nil {
		if l1line.SpecAny() {
			if !n.engine.TryCommitAllNow() {
				n.engine.AbortAll()
			}
		}
		if l1line := n.l1.Peek(addr); l1line != nil {
			n.evictL1Line(l1line)
			// evictL1Line may have made v Modified (dirty merge).
		}
	}
	if _, busy := n.wbBuf[addr]; busy {
		// A previous writeback of this block is still awaiting its WBAck;
		// stall the eviction.
		return false
	}
	old, ok := n.l2.Invalidate(addr)
	n.invariantAddr(ok, "L2 evict of absent line", addr)
	switch old.State {
	case cache.Modified, cache.Exclusive:
		put(&n.wbBuf, addr, wbEntry{data: old.Data, dirty: old.State == cache.Modified})
		n.send(n.home(addr), coherence.Msg{
			Kind: coherence.PutX, Addr: addr,
			Data: old.Data, HasData: true,
			Dirty: old.State == cache.Modified,
		})
	case cache.Shared:
		// Silent drop; a stale Inv will be acked blindly.
	}
	return true
}

// startCleaning begins a cleaning writeback (§3.2): the first speculative
// store to a non-speculatively-dirty block pushes the pre-speculative value
// to the L2 so abort can recover it; the L1 line becomes Exclusive when the
// cleaning completes.
func (n *Node) startCleaning(block memtypes.Addr) {
	if _, ok := n.cleanings[block]; ok {
		return
	}
	put(&n.cleanings, block, n.now+n.l2.HitLatency())
	n.cleanList = append(n.cleanList, block)
	n.CleaningWBs++
	if coherence.TraceOn() {
		coherence.TraceEvent(n.now, block, "node%d startCleaning done=%d", n.id, n.cleanings[block])
	}
}

func (n *Node) completeCleanings() {
	if len(n.cleanList) == 0 {
		return
	}
	live := n.cleanList[:0]
	for _, block := range n.cleanList {
		done := n.cleanings[block]
		if n.now < done {
			live = append(live, block)
			continue
		}
		l1line := n.l1.Peek(block)
		applied := false
		if l1line != nil && l1line.State == cache.Modified && !l1line.SpecWrittenAny() {
			l2line := n.l2.Peek(block)
			n.invariantAddr(l2line != nil, "cleaning without L2 line", block)
			l2line.Data = l1line.Data
			l2line.State = cache.Modified
			l1line.State = cache.Exclusive
			applied = true
		}
		if coherence.TraceOn() {
			w0 := memtypes.Word(0)
			if l1line != nil {
				w0 = l1line.Data[0]
			}
			coherence.TraceEvent(n.now, block, "node%d completeCleaning applied=%v w0l1=%d", n.id, applied, w0)
		}
		delete(n.cleanings, block)
	}
	n.cleanList = live
}

// drainStep is what the store-buffer drain does next with one buffered
// store, as the read-only drain rules below name it: ownStep (the FIFO
// head and its prefetches) and classifyEntry (the coalescing buffer).
type drainStep uint8

const (
	drainWait    drainStep = iota // nothing, until an event tracked elsewhere (a fill, a freed miss, a cleaning, a commit)
	drainRequest                  // request the block with ownership
	drainClean                    // start a cleaning writeback of the block (§3.2)
	drainWrite                    // write the store into the L1 line
)

// ownStep is the rule both organizations share for the block a buffered
// store needs: write it while the L1 line is writable, else request
// ownership unless a miss for the block is outstanding or no fill can be
// allocated (requestBlock would do nothing), else wait.
func (n *Node) ownStep(block memtypes.Addr) (drainStep, *cache.Line) {
	line := n.l1.Peek(block)
	switch {
	case line != nil && line.State.Writable():
		return drainWrite, line
	case n.mshrs[block] != nil || !n.canAllocateFill(block):
		return drainWait, nil
	}
	return drainRequest, nil
}

// prefetchBlocks returns the FIFO's store-prefetch candidates (§6.1): the
// distinct blocks of the entries up to storePrefetchDepth from the head,
// or none while prefetching is off or fewer than four MSHRs are free. The
// headroom is judged once per drain, before any request. A candidate is
// prefetched when its ownStep is drainRequest.
func (n *Node) prefetchBlocks() []memtypes.Addr {
	if n.storePrefetchDepth <= 0 || len(n.mshrs) >= n.maxMSHRs-4 {
		return nil
	}
	return n.fifoSB.PrefetchBlocks(n.storePrefetchDepth)
}

// classifyEntry is the coalescing buffer's drain rule for entry e. The
// line it returns is the entry's L1 line when the step is drainClean or
// drainWrite.
func (n *Node) classifyEntry(e *storebuffer.CoalescingEntry) (drainStep, *cache.Line) {
	// A remote miss is checked first, so an entry pinned behind one costs
	// one lookup: until the fill that frees the miss, the line is not
	// writable and requestBlock does nothing. A local L2 serve can overlap
	// a writable line (a store buffered behind an older entry for its
	// block requests one), and a probe can take a line mid-cleaning, after
	// which the entry requests the block again; so neither is a wait
	// before the line is looked at.
	if m := n.mshrs[e.Block]; m != nil && !m.fromL2 {
		return drainWait, nil
	}
	// Per-block age order: an older entry for the same block drains first.
	if !n.coalSB.IsOldestForBlock(e) {
		return drainWait, nil
	}
	step, line := n.ownStep(e.Block)
	if step != drainWrite {
		return step, nil
	}
	if _, cleaning := n.cleanings[e.Block]; cleaning {
		return drainWait, nil
	}
	if e.Epoch == storebuffer.NonSpecEpoch {
		return drainWrite, line
	}
	// A buffered speculative store's epoch is active: the engine commits
	// an epoch only once SBEpochDrained holds (oldestCommittable and
	// TryCommitAllNow both check it), which needs every entry of the
	// epoch gone, and an abort flash-invalidates the epoch's entries.
	age := n.engine.EpochAge(e.Epoch)
	n.invariantAddr(age >= 0, "buffered store of an inactive epoch", e.Block)
	// Hold-back rule (§3.1): a younger epoch's store to a block written by
	// an older active epoch waits for the older commit.
	for _, older := range n.engine.ActiveEpochs()[:age] {
		if line.SpecWritten(older) {
			return drainWait, nil
		}
	}
	// First speculative store to a non-speculatively-dirty block: cleaning
	// writeback first (§3.2).
	if line.State == cache.Modified && !line.SpecWrittenAny() {
		return drainClean, line
	}
	return drainWrite, line
}

// drainStoreBuffer writes eligible store-buffer entries into the L1 and
// requests ownership for the rest.
func (n *Node) drainStoreBuffer() {
	if n.fifoSB != nil {
		n.drainFIFO()
		return
	}
	n.drainCoalescing(0, 2, false)
}

// drainFIFO drains the word-granularity FIFO head in order and issues
// exclusive prefetches for upcoming entries (store prefetching, §6.1).
func (n *Node) drainFIFO() {
	if e := n.fifoSB.Head(); e != nil {
		block := memtypes.BlockAddr(e.Addr)
		switch step, line := n.ownStep(block); step {
		case drainWrite:
			line.Data[memtypes.WordIndex(e.Addr)] = e.Val
			line.State = cache.Modified
			n.fifoSB.Pop()
		case drainRequest:
			n.requestBlock(block, true)
		}
	}
	for _, block := range n.prefetchBlocks() {
		if step, _ := n.ownStep(block); step == drainRequest {
			n.requestBlock(block, true)
			n.Prefetches++
		}
	}
}

// drainCoalescing drains up to maxDrains eligible entries (all eligible
// entries for `block` if nonzero — the probe path's drain-before-respond).
// nonspecOnly restricts the drain to non-speculative entries: the probe
// path must never flush speculative stores into a line it is about to
// surrender (the speculative entry simply stays buffered and re-acquires
// ownership after the external request is served).
func (n *Node) drainCoalescing(block memtypes.Addr, maxDrains int, nonspecOnly bool) {
	drained := 0
	for i := 0; i < n.coalSB.Len() && (maxDrains == 0 || drained < maxDrains); i++ {
		e := n.coalSB.Entries()[i]
		if (block != 0 && e.Block != block) || (nonspecOnly && e.Epoch != storebuffer.NonSpecEpoch) {
			continue
		}
		switch step, line := n.classifyEntry(e); step {
		case drainRequest:
			n.requestBlock(e.Block, true)
		case drainClean:
			n.startCleaning(e.Block)
		case drainWrite:
			n.writeEntry(e, line)
			drained++
			i--
		}
	}
}

// writeEntry writes coalescing entry e into its writable L1 line and
// removes it from the buffer.
func (n *Node) writeEntry(e *storebuffer.CoalescingEntry, line *cache.Line) {
	for w := 0; w < memtypes.WordsPerBlock; w++ {
		if e.Valid[w] {
			line.Data[w] = e.Words[w]
		}
	}
	line.State = cache.Modified
	if e.Epoch != storebuffer.NonSpecEpoch {
		n.l1.MarkSpecWritten(line, e.Epoch)
	}
	if coherence.TraceOn() {
		coherence.TraceEvent(n.now, e.Block, "node%d drain entry epoch=%d w0=%d(valid=%v)", n.id, e.Epoch, e.Words[0], e.Valid[0])
	}
	n.coalSB.Remove(e)
}
