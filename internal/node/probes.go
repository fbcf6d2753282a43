package node

import (
	"invisifence/internal/cache"
	"invisifence/internal/coherence"
	"invisifence/internal/memtypes"
	"invisifence/internal/network"
)

// handleCacheMsg dispatches a directory-to-cache message. m points into the
// network inbox or into retryParked's scratch, and is read during the call
// only; park copies a message that has to wait.
func (n *Node) handleCacheMsg(src network.NodeID, m *coherence.Msg) {
	switch m.Kind {
	case coherence.DataS, coherence.DataE, coherence.DataM,
		coherence.FwdDataS, coherence.FwdDataM, coherence.GrantX:
		n.handleFill(m)
	case coherence.WBAck:
		delete(n.wbBuf, m.Addr)
	case coherence.Inv, coherence.FwdGetS, coherence.FwdGetX:
		n.handleProbe(src, m, nil)
	default:
		n.invariant(false, "unexpected cache message %v from %d", *m, src)
	}
}

// handleFill completes an outstanding miss with arriving data or an
// upgrade grant.
func (n *Node) handleFill(m *coherence.Msg) {
	block := m.Addr
	mshr, ok := n.mshrs[block]
	n.invariantAddr(ok, "fill without MSHR", block)
	if mshr.invalidated {
		// The block was invalidated while this fill was in flight: the
		// data predates the invalidating write. Discard it and reissue
		// the request; the fresh fill is ordered after the write.
		mshr.invalidated = false
		mshr.sent = false
		mshr.fromL2 = false
		mshr.upgrade = false
		delete(n.parkedFills, block)
		return
	}
	if m.Kind == coherence.GrantX {
		// Upgrade grant: permission without data. The blocking directory
		// guarantees our Shared copy survived (any older invalidation was
		// delivered first on the same FIFO pair).
		l2line := n.l2.Peek(block)
		n.invariantAddr(l2line != nil, "GrantX without L2 line", block)
		if l2line.State == cache.Shared {
			l2line.State = cache.Exclusive
		}
		if l1line := n.l1.Peek(block); l1line != nil {
			if l1line.State == cache.Shared {
				l1line.State = cache.Exclusive
			}
		} else if !n.installL1(block, l2line.Data, cache.Exclusive) {
			// The L1 copy was evicted while the upgrade was in flight and
			// no victim is free yet; retry so the granted permission can
			// be used the moment it arrives (a slow refill here would let
			// contending readers steal the line back forever).
			n.park(n.id, m, nil)
			return
		}
		n.wakeWaiters(mshr)
		n.freeMSHR(mshr)
		return
	}
	var l2state cache.LineState
	switch m.Kind {
	case coherence.DataS, coherence.FwdDataS:
		l2state = cache.Shared
	case coherence.DataE, coherence.DataM:
		// Memory supplied the data; our copy is clean.
		l2state = cache.Exclusive
	case coherence.FwdDataM:
		// The previous owner's dirty data came straight to us and memory
		// was not updated: we hold the only valid copy.
		l2state = cache.Modified
	}
	if !n.installL2(block, m.Data, l2state) {
		// No L2 victim available yet; retry next cycle via parked fill.
		put(&n.parkedFills, block, true)
		n.park(n.id, m, nil)
		return
	}
	l1state := l2state
	if l2state == cache.Modified {
		l1state = cache.Exclusive // dirtiness tracked at the L2
	}
	if !n.installL1(block, m.Data, l1state) {
		put(&n.parkedFills, block, true)
		n.park(n.id, m, nil)
		return
	}
	delete(n.parkedFills, block)
	n.RemoteFills++
	n.wakeWaiters(mshr)
	n.freeMSHR(mshr)
}

// retryParked re-attempts parked work each cycle: deferred probes
// (commit-on-violate), probes that raced ahead of their data, and fills
// waiting for a victim. The parked list and a scratch slice swap backing
// arrays, so the per-cycle retry loop allocates nothing; re-parked entries
// append to the (empty) other slice while the iteration reads this one.
func (n *Node) retryParked() {
	if len(n.parked) == 0 {
		return
	}
	pending := n.parked
	n.parked = n.parkedScratch[:0]
	n.parkedScratch = pending
	for i := range pending {
		p := &pending[i]
		switch p.msg.Kind {
		case coherence.Inv, coherence.FwdGetS, coherence.FwdGetX:
			n.handleProbe(p.src, &p.msg, p)
		default:
			n.handleFill(&p.msg)
		}
	}
}

// probeWantsWrite reports whether the probe transfers write permission
// away (external write request).
func probeWantsWrite(k coherence.MsgKind) bool {
	return k == coherence.Inv || k == coherence.FwdGetX
}

// handleProbe processes an external coherence request against this node:
// violation detection against the speculative bits (§3.2), commit-on-violate
// deferral, then the conventional MESI response. prior is non-nil when
// retrying a parked probe (it points into retryParked's scratch snapshot,
// which is stable while the retry loop runs; re-parking copies it).
func (n *Node) handleProbe(src network.NodeID, m *coherence.Msg, prior *parkedProbe) {
	block := m.Addr

	// ASO commit drain blocks the cache's external interface (§2.2).
	if n.now < n.engine.CommitBusyUntil() {
		n.park(src, m, prior)
		return
	}

	// Fill hold: the line just arrived for a waiting access; let the core
	// touch it once before handing it over (bounded, so deadlock-free).
	if hold, ok := n.fillHold[block]; ok {
		if n.now < hold {
			n.park(src, m, prior)
			return
		}
		delete(n.fillHold, block)
	}

	// A fill for this block has arrived but is waiting for a victim way:
	// the probe is ordered behind it (serving it now would invalidate the
	// cached copy and let the parked fill re-install stale data).
	if n.parkedFills[block] {
		n.park(src, m, prior)
		return
	}

	// Writeback races: we evicted the block but the directory had already
	// forwarded a request to us; serve from the writeback buffer.
	if wb, ok := n.wbBuf[block]; ok {
		if n.l2.Peek(block) == nil {
			switch m.Kind {
			case coherence.Inv:
				n.send(src, coherence.Msg{Kind: coherence.InvAck, Addr: block})
			case coherence.FwdGetS:
				n.send(m.Req, coherence.Msg{Kind: coherence.FwdDataS, Addr: block, Data: wb.data, HasData: true})
				n.send(src, coherence.Msg{Kind: coherence.OwnerWBS, Addr: block, Data: wb.data, HasData: true})
			case coherence.FwdGetX:
				n.send(m.Req, coherence.Msg{Kind: coherence.FwdDataM, Addr: block, Data: wb.data, HasData: true})
				n.send(src, coherence.Msg{Kind: coherence.XferAck, Addr: block})
			}
			return
		}
	}

	l1line := n.l1.Peek(block)
	l2line := n.l2.Peek(block)
	if l1line == nil && l2line == nil {
		if m.Kind == coherence.Inv {
			// Stale sharer (silent drop earlier): acknowledge blindly —
			// but if a miss is pending, a 3-hop fill carrying
			// pre-invalidation data may still be in flight; poison it so
			// its arrival retries the request instead of installing.
			if mshr, ok := n.mshrs[block]; ok {
				mshr.invalidated = true
			}
			n.send(src, coherence.Msg{Kind: coherence.InvAck, Addr: block})
			return
		}
		// A forward raced ahead of our inbound data (3-hop triangle);
		// park until the fill lands.
		n.invariantAddr(n.mshrs[block] != nil, "probe for absent block with no MSHR", block)
		n.park(src, m, prior)
		return
	}

	// Violation detection (§3.2): an external write to a speculatively-read
	// block, or any external request to a speculatively-written block.
	if l1line != nil {
		conflict := -1
		for _, e := range n.engine.ActiveEpochs() {
			if l1line.SpecWritten(e) || (probeWantsWrite(m.Kind) && l1line.SpecRead(e)) {
				conflict = e
				break
			}
		}
		if conflict >= 0 {
			if n.engine.DeferAllowed() {
				// Commit-on-violate: defer for the bounded window, giving
				// the speculation a chance to commit (§3.2).
				if prior == nil || !prior.isCoV {
					n.engine.NotifyDeferredProbe()
					n.st.CoVDeferrals++
					n.park(src, m, &parkedProbe{
						deadline: n.engine.CoVDeadline(n.now),
						isCoV:    true,
					})
					return
				}
				if n.now < prior.deadline {
					n.park(src, m, prior)
					return
				}
				// Timeout: forward progress demands the abort.
			}
			n.engine.AbortFrom(conflict)
			l1line = n.l1.Peek(block) // may be invalidated by the abort
		} else if prior != nil && prior.isCoV {
			// The conflict disappeared: the speculation committed during
			// the deferral window.
			n.st.CoVSaves++
		}
	}

	// Any retired-but-undrained non-speculative stores for this block are
	// flushed into the L1 before responding, so the response carries the
	// latest committed values. Speculative entries stay in the buffer:
	// they are not globally visible and will re-acquire ownership later.
	if n.coalSB != nil {
		n.drainCoalescing(block, 0, true)
		l1line = n.l1.Peek(block)
	}
	if n.snoopLQ && probeWantsWrite(m.Kind) {
		n.core.SnoopBlock(block)
	}

	switch m.Kind {
	case coherence.Inv:
		if l1line != nil {
			n.invariantAddr(!l1line.SpecAny(), "Inv serving a speculative line", block)
			n.l1.Invalidate(block)
		}
		if l2line != nil {
			n.l2.Invalidate(block)
		}
		n.send(src, coherence.Msg{Kind: coherence.InvAck, Addr: block})

	case coherence.FwdGetS:
		if l1line != nil {
			n.invariantAddr(!l1line.SpecWrittenAny(), "FwdGetS downgrading a speculatively-written line", block)
		}
		data := n.latestData(l1line, l2line, block)
		if l1line != nil {
			l1line.State = cache.Shared
		}
		n.invariantAddr(l2line != nil, "FwdGetS owner without L2 line", block)
		l2line.Data = data
		l2line.State = cache.Shared
		n.send(m.Req, coherence.Msg{Kind: coherence.FwdDataS, Addr: block, Data: data, HasData: true})
		n.send(src, coherence.Msg{Kind: coherence.OwnerWBS, Addr: block, Data: data, HasData: true})

	case coherence.FwdGetX:
		if l1line != nil {
			n.invariantAddr(!l1line.SpecAny(), "FwdGetX taking a speculative line", block)
		}
		data := n.latestData(l1line, l2line, block)
		if l1line != nil {
			n.l1.Invalidate(block)
		}
		if l2line != nil {
			n.l2.Invalidate(block)
		}
		n.send(m.Req, coherence.Msg{Kind: coherence.FwdDataM, Addr: block, Data: data, HasData: true})
		n.send(src, coherence.Msg{Kind: coherence.XferAck, Addr: block})
	}
}

// latestData returns the freshest non-speculative copy of a block: the L1
// if it is non-speculatively dirty, else the L2 (which the cleaning-
// writeback rule keeps current for speculatively-written lines).
func (n *Node) latestData(l1line, l2line *cache.Line, block memtypes.Addr) memtypes.BlockData {
	if l1line != nil && l1line.State == cache.Modified && !l1line.SpecWrittenAny() {
		return l1line.Data
	}
	n.invariantAddr(l2line != nil, "no data source for block", block)
	return l2line.Data
}

// park queues a probe or fill for retry next cycle, copying the message:
// the one copy a message makes on its way through the node. prior (a
// retry's scratch entry, or a new deferral) carries CoV deferral state
// forward; its fields are copied into the live parked list, never retained
// by pointer.
func (n *Node) park(src network.NodeID, m *coherence.Msg, prior *parkedProbe) {
	n.parked = append(n.parked, parkedProbe{src: src, msg: *m})
	if prior != nil {
		p := &n.parked[len(n.parked)-1]
		p.deadline, p.isCoV = prior.deadline, prior.isCoV
	}
}
