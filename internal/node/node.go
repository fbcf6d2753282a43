// Package node assembles one simulated node: the out-of-order core, the L1D
// and L2 caches, the post-retirement store buffer, the home-directory slice,
// the cache-side coherence state machine, and the InvisiFence/ASO engine.
//
// The node implements both cpu.Backend (retirement policy per the Figure 2
// consistency rules, speculation triggers per Figure 4) and core.Host (the
// machine-state primitives the engine drives: checkpoint restore, flash
// operations, store-buffer flush).
//
// Retirement is classify-then-apply: a read-only classifier turns each
// attempt into a headPlan, and apply performs what the plan names. The
// event loop's wake hint (NextEvent) and skip replay (SkipCycles) read the
// same plan for the ROB head, so the policy is written once (backend.go).
// The store-buffer drain is classify-then-apply in the same way: the drain
// and the probe path's drain-before-respond apply each organization's
// read-only drain rule, and NextEvent's store-buffer term only reads it
// (memory.go).
package node

import (
	"fmt"

	"invisifence/internal/cache"
	"invisifence/internal/coherence"
	"invisifence/internal/consistency"
	ifcore "invisifence/internal/core"
	"invisifence/internal/cpu"
	"invisifence/internal/isa"
	"invisifence/internal/memctrl"
	"invisifence/internal/memtypes"
	"invisifence/internal/network"
	"invisifence/internal/stats"
	"invisifence/internal/storebuffer"
)

// Config describes one node.
type Config struct {
	ID    network.NodeID
	Nodes int
	Model consistency.Model
	// Engine selects speculation policy; Mode Off is a conventional
	// implementation of Model.
	Engine ifcore.Config
	Core   cpu.Config
	L1     cache.Config
	L2     cache.Config
	Memory memctrl.Config
	// MSHRs bounds outstanding misses (Figure 6: 32).
	MSHRs int
	// SBCapacity sizes the store buffer: 64 word entries (FIFO, SC/TSO),
	// 8 block entries (coalescing, single checkpoint), 32 (two in-flight
	// checkpoints), per Figure 6.
	SBCapacity int
	// StorePrefetchDepth is how far past the FIFO head exclusive
	// prefetches are issued (Flexus-style store prefetching; 0 disables).
	StorePrefetchDepth int
	// MsgsPerCycle bounds protocol messages consumed per cycle.
	MsgsPerCycle int
	// SnoopLQ enables in-window load-queue snooping. Kept on in every
	// configuration including continuous (see DESIGN.md: functionally
	// conservative, hardware-cost claim unaffected).
	SnoopLQ bool
	// FillHoldCycles parks external probes for a block for this many
	// cycles after its fill arrives, so the requesting core can perform at
	// least one access before surrendering the line. This is the standard
	// livelock-avoidance window for hot atomics (ownership would otherwise
	// ping-pong forever without any fetch-add completing). Bounded, so it
	// cannot deadlock. 0 disables.
	FillHoldCycles uint64
}

// UsesFIFOSB reports whether this configuration uses the word-granularity
// FIFO store buffer (conventional SC/TSO) rather than the coalescing buffer.
func (c *Config) UsesFIFOSB() bool {
	return c.Engine.Mode == ifcore.ModeOff &&
		consistency.ConventionalSB(c.Model) == consistency.SBFIFOWord
}

type mshrEntry struct {
	block   memtypes.Addr
	wantX   bool
	upgrade bool
	sent    bool
	fromL2  bool   // served by local L2
	readyAt uint64 // completion time for local L2 serves
	waiters []loadWaiter
	// invalidated marks a miss whose block was invalidated while pending:
	// an Inv (from a directory transaction ordered after the one producing
	// our fill) can overtake a 3-hop forwarded fill on a different network
	// pair. The stale fill must be discarded and the request reissued, or
	// the node would install a permanently incoherent copy.
	invalidated bool
}

type loadWaiter struct {
	tag  uint64
	addr memtypes.Addr
}

type wbEntry struct {
	data  memtypes.BlockData
	dirty bool
}

// parkedProbe holds a deferred or raced coherence message by value (park
// copies it out of the inbox or the retry scratch); the parked list and its
// retry scratch swap backing arrays each cycle, so parking allocates nothing
// in steady state.
type parkedProbe struct {
	src      network.NodeID
	msg      coherence.Msg
	deadline uint64 // CoV deferral deadline; 0 = no deadline (resource wait)
	isCoV    bool
}

// Node is one processor node of the 16-node system. It keeps the Config
// fields it reads itself; the cache, core, engine, memory and store-buffer
// parts of the Config belong to the components built from them.
type Node struct {
	id    network.NodeID
	nodes int
	net   *network.Network
	dir   *coherence.Directory
	mem   *memctrl.Memory
	core  *cpu.Core
	l1    *cache.Cache
	l2    *cache.Cache

	fifoSB *storebuffer.FIFO
	coalSB *storebuffer.Coalescing
	engine *ifcore.Engine

	st  *stats.NodeStats
	now uint64

	// The block-keyed maps are created on their first write (put): a node
	// of a tiny run never writes most of them, and reads, deletes and len
	// work on a nil map.
	mshrs      map[memtypes.Addr]*mshrEntry
	mshrOrder  []*mshrEntry
	mshrFree   []*mshrEntry   // recycled miss entries (waiter capacity kept)
	setPending map[uint64]int // L1 set index -> outstanding fills/locks

	wbBuf     map[memtypes.Addr]wbEntry
	cleanings map[memtypes.Addr]uint64 // block -> cleaning-writeback done cycle
	cleanList []memtypes.Addr          // deterministic iteration
	fillHold  map[memtypes.Addr]uint64 // block -> probe-hold deadline after fill

	parked        []parkedProbe
	parkedScratch []parkedProbe // retryParked's reusable iteration snapshot
	// parkedFills marks blocks whose fill data has arrived but is waiting
	// for a victim way. Probes for these blocks must queue behind the fill:
	// serving them first would invalidate the cached copy and let the
	// parked fill later re-install stale data.
	parkedFills map[memtypes.Addr]bool

	model      consistency.Model
	snoopLQ    bool // Config.SnoopLQ
	accounting bool // false once the core halts (post-halt drain not charged)

	// Config's limits: msgsPerCycle is MsgsPerCycle with its default
	// applied.
	msgsPerCycle, maxMSHRs, storePrefetchDepth int
	fillHoldCycles                             uint64

	// Stats.
	CleaningWBs, Prefetches, L2HitFills, RemoteFills uint64
}

// New builds a node. The workload program and initial registers seed the
// core.
func New(cfg Config, net *network.Network, prog *isa.Program, regs [isa.NumRegs]memtypes.Word) *Node {
	return new(Node).Init(cfg, net, prog, regs)
}

// Init builds n for cfg and returns it (DESIGN.md §2): a rebuilt node
// rebuilds its components in place, clears its maps and keeps its slices'
// backing arrays.
func (n *Node) Init(cfg Config, net *network.Network, prog *isa.Program, regs [isa.NumRegs]memtypes.Word) *Node {
	if cfg.MsgsPerCycle <= 0 {
		cfg.MsgsPerCycle = 8
	}
	old := *n
	clear(old.mshrs)
	clear(old.setPending)
	clear(old.wbBuf)
	clear(old.cleanings)
	clear(old.fillHold)
	clear(old.parkedFills)
	*n = Node{
		id:                 cfg.ID,
		nodes:              cfg.Nodes,
		net:                net,
		mem:                renew(old.mem).Init(cfg.Memory),
		l1:                 renew(old.l1).Init(cfg.L1),
		l2:                 renew(old.l2).Init(cfg.L2),
		st:                 renew(old.st),
		mshrs:              old.mshrs,
		mshrOrder:          old.mshrOrder[:0],
		mshrFree:           append(old.mshrFree, old.mshrOrder...),
		setPending:         old.setPending,
		wbBuf:              old.wbBuf,
		cleanings:          old.cleanings,
		cleanList:          old.cleanList[:0],
		fillHold:           old.fillHold,
		parked:             old.parked[:0],
		parkedScratch:      old.parkedScratch[:0],
		parkedFills:        old.parkedFills,
		model:              cfg.Model,
		snoopLQ:            cfg.SnoopLQ,
		accounting:         true,
		msgsPerCycle:       cfg.MsgsPerCycle,
		maxMSHRs:           cfg.MSHRs,
		storePrefetchDepth: cfg.StorePrefetchDepth,
		fillHoldCycles:     cfg.FillHoldCycles,
	}
	*n.st = stats.NodeStats{}
	n.dir = renew(old.dir).Init(cfg.ID, cfg.Nodes, n.mem, net)
	if cfg.UsesFIFOSB() {
		n.fifoSB = renew(old.fifoSB).Init(cfg.SBCapacity)
	} else {
		n.coalSB = renew(old.coalSB).Init(cfg.SBCapacity)
	}
	n.engine = renew(old.engine).Init(cfg.Engine, n)
	n.core = renew(old.core).Init(int(cfg.ID), cfg.Core, prog, regs, n)
	return n
}

// renew returns p, or a new zero T when p is nil.
func renew[T any](p *T) *T {
	if p == nil {
		return new(T)
	}
	return p
}

// Directory exposes the node's home-directory slice (tests).
func (n *Node) Directory() *coherence.Directory { return n.dir }

// Memory exposes the node's memory controller (workload init, result reads).
func (n *Node) Memory() *memctrl.Memory { return n.mem }

// Core exposes the core (tests).
func (n *Node) Core() *cpu.Core { return n.core }

// L1 exposes the L1 cache (tests).
func (n *Node) L1() *cache.Cache { return n.l1 }

// L2 exposes the L2 cache (tests).
func (n *Node) L2() *cache.Cache { return n.l2 }

// Engine exposes the speculation engine (tests).
func (n *Node) Engine() *ifcore.Engine { return n.engine }

// Stats exposes accounting (also part of core.Host).
func (n *Node) Stats() *stats.NodeStats { return n.st }

// Now implements core.Host.
func (n *Node) Now() uint64 { return n.now }

// Finished reports whether the node is fully quiesced: program halted,
// speculation resolved, stores drained, no outstanding misses.
func (n *Node) Finished() bool {
	return n.core.Halted() && !n.engine.Speculating() && n.sbEmpty() &&
		len(n.mshrs) == 0 && len(n.parked) == 0 && len(n.cleanings) == 0
}

func (n *Node) sbEmpty() bool {
	if n.fifoSB != nil {
		return n.fifoSB.Empty()
	}
	return n.coalSB.Empty()
}

// MSHRCount returns outstanding misses (tests, diagnostics).
func (n *Node) MSHRCount() int { return len(n.mshrs) }

// ParkedCount returns parked probes/fills awaiting retry (tests, diagnostics).
func (n *Node) ParkedCount() int { return len(n.parked) }

// SBOccupancy returns current store buffer entries (tests).
func (n *Node) SBOccupancy() int {
	if n.fifoSB != nil {
		return n.fifoSB.Len()
	}
	return n.coalSB.Len()
}

func (n *Node) home(a memtypes.Addr) network.NodeID {
	return coherence.HomeOf(a, n.nodes)
}

func (n *Node) send(dst network.NodeID, m coherence.Msg) {
	if coherence.TraceOn() {
		coherence.Trace(n.now, fmt.Sprintf("node%d->%d", n.id, dst), m, "")
	}
	n.net.Send(n.id, dst, m)
}

// Tick advances the node one cycle. The simulator has already advanced the
// network, so this cycle's deliveries are in the inbox.
func (n *Node) Tick(now uint64) {
	n.now = now
	// Message-driven core paths below (fills, snoops, aborts) anchor
	// redirect timing to the core's clock, which lock-step execution leaves
	// at the previous cycle; re-anchor it in case idle-skip jumped.
	n.core.SyncNow(now - 1)
	n.retryParked()
	n.deliver()
	n.dir.Tick(now)
	n.completeCleanings()
	n.completeL2Serves()
	n.issueRequests()
	n.drainStoreBuffer()
	if n.core.Halted() {
		n.engine.RequestHalt()
	}
	n.engine.Tick()
	n.core.Tick(now)
	n.account()
}

// deliver consumes protocol messages from the network inbox.
func (n *Node) deliver() {
	for i := 0; i < n.msgsPerCycle; i++ {
		m := n.net.Recv(n.id)
		if m == nil {
			return
		}
		if m.Payload.Kind.IsDirRequest() {
			n.dir.Handle(n.now, m.Src, &m.Payload)
			continue
		}
		if coherence.TraceOn() {
			coherence.Trace(n.now, fmt.Sprintf("node%d<-%d", n.id, m.Src), m.Payload, "")
		}
		n.handleCacheMsg(m.Src, &m.Payload)
	}
}

// NextEvent returns the earliest future cycle at which this node might
// change state on its own — excluding new network deliveries, which the
// simulator tracks through the network's own horizon. It returns
// memtypes.NoEvent when every pending activity is waiting on an external
// input. The contract is one-sided: the hint must never be later than the
// node's true next state change, but may be earlier (costing only a tick).
// The ROB head's term is not a separate model of retirement: it reads the
// wait kind of the headPlan the next Retire* call will apply. The memory
// controller has no term: it is pull-scheduled — AccessDone assigns each
// access its completion cycle at request time, and the requesting
// directory transaction carries that cycle (the directory's term) — and
// bank free times only shape future AccessDone results.
//
// The method is read-only with respect to simulated state, so the answer
// never perturbs a run: a simulation executed with idle-skip is bit-exact
// against the naive lock-step loop (enforced by TestGoldenResults and
// TestIdleSkipBitExact), and no node changes state before its hint
// (TestHintAudit).
func (n *Node) NextEvent() uint64 {
	t, _ := n.NextEventTerm()
	return t
}

// NextEventTerm is NextEvent together with the name of the term that set
// the hint: "inbox", "parked", "retired", "mshr", "cleaning", "sb", "head",
// "dir", "engine", or the core's "fetch", "exec" or "issue" ("" at
// NoEvent). On a tie the earlier term in that order wins. Diagnostics only.
func (n *Node) NextEventTerm() (uint64, string) {
	// Unconsumed deliveries, parked probes/fills, and unsent miss requests
	// are all retried next cycle.
	if n.net.InboxLen(n.id) > 0 {
		return n.now + 1, "inbox"
	}
	if len(n.parked) > 0 {
		return n.now + 1, "parked"
	}
	// A cycle that retired instructions classifies as Busy; the next cycle
	// may classify differently even if frozen, so never skip across it.
	if n.core.RetiredThisCycle > 0 {
		return n.now + 1, "retired"
	}
	next, term := uint64(memtypes.NoEvent), ""
	for _, m := range n.mshrOrder {
		switch {
		case !m.sent && !m.fromL2:
			return n.now + 1, "mshr" // request issues next cycle
		case m.fromL2:
			// Includes completed-but-stuck local serves (no victim yet),
			// which retry every cycle via max(now+1, ...).
			if t := max(n.now+1, m.readyAt); t < next {
				next, term = t, "mshr"
			}
		}
	}
	for _, block := range n.cleanList {
		if t := max(n.now+1, n.cleanings[block]); t < next {
			next, term = t, "cleaning"
		}
	}
	if t := n.sbNextEvent(); t < next {
		next, term = t, "sb"
	}
	if t := n.headRetireEvent(); t < next {
		next, term = t, "head"
	}
	if t := n.dir.NextEvent(n.now); t < next {
		next, term = t, "dir"
	}
	if t := n.engine.NextEvent(n.now); t < next {
		next, term = t, "engine"
	}
	if t, ct := n.core.NextEventTerm(); t < next {
		next, term = t, ct
	}
	return next, term
}

// headRetireEvent folds the retirement policy into the horizon. A ready
// head whose plan is a pure or full-stall wait contributes no event: it
// wakes through the store-buffer drains, fills, cleanings and epoch
// commits tracked elsewhere, and SkipCycles replays a full stall's
// counter. Any other ready head acts next cycle.
func (n *Node) headRetireEvent() uint64 {
	hs := n.core.HeadState()
	switch {
	case !hs.Valid:
		return memtypes.NoEvent
	case !hs.Ready:
		return hs.ReadyAt // NoEvent when only a fill can unblock it
	case n.headPlan(hs).wait != waitMutates:
		return memtypes.NoEvent
	}
	return n.now + 1
}

// headPlan classifies the ready ROB head's next retirement attempt with
// the classifier its Retire* call will use. A load's value source only
// picks between outcomes that all mutate, so loads assume the memory system.
func (n *Node) headPlan(hs cpu.HeadState) headPlan {
	switch {
	case hs.Op == isa.Fence:
		return n.classifyFence()
	case hs.Op.IsLoad() && hs.AddrOK:
		return n.classifyLoad(hs.Op, hs.Addr, true)
	case hs.Op.IsStore() && hs.AddrOK:
		return n.classifyStore(hs.Op, hs.Addr)
	case hs.Op.IsAtomic() && hs.AddrOK:
		return n.classifyAtomic(hs.Op, hs.Addr, hs.OpA, hs.OpB, hs.OpsOK)
	}
	return headPlan{} // Halt (the engine's halt request) and plain ops retire
}

var (
	stepNames = [...]string{"retire", "stall", "full-stall", "begin", "request", "replay", "push", "write", "buffer"}
	waitNames = [...]string{"mutates", "pure", "full-stall"}
)

// HeadPlan names the ROB head's next retirement attempt as "step/wait"
// (for example "stall/pure"), or "none" when the retirement policy will
// not be consulted next cycle. Diagnostics only.
func (n *Node) HeadPlan() string {
	if hs := n.core.HeadState(); hs.Valid && hs.Ready {
		p := n.headPlan(hs)
		return stepNames[p.step] + "/" + waitNames[p.wait]
	}
	return "none"
}

// sbNextEvent reports when the store-buffer drain would next act: next
// cycle if some entry's drain step is not a wait (memory.go), else never
// on its own.
func (n *Node) sbNextEvent() uint64 {
	if n.fifoSB != nil {
		if e := n.fifoSB.Head(); e != nil {
			if step, _ := n.ownStep(memtypes.BlockAddr(e.Addr)); step != drainWait {
				return n.now + 1
			}
		}
		for _, block := range n.prefetchBlocks() {
			if step, _ := n.ownStep(block); step == drainRequest {
				return n.now + 1
			}
		}
		return memtypes.NoEvent
	}
	for _, e := range n.coalSB.Entries() {
		if step, _ := n.classifyEntry(e); step != drainWait {
			return n.now + 1
		}
	}
	return memtypes.NoEvent
}

// SkipCycles fast-forwards the node across k cycles (n.now+1 .. n.now+k)
// in which the simulator proved no component makes progress. Frozen state
// means every skipped cycle classifies exactly like the cycle just ticked
// (NextEvent refuses to skip after a retiring cycle), so cycle accounting
// is replayed in bulk; the core replicates its own per-cycle counters, and
// a full-stall head plan gets its k suppressed FullStalls.
func (n *Node) SkipCycles(k uint64) {
	if n.accounting {
		n.st.AccountN(stallClass(n.core.HeadStall), n.engine.YoungestEpoch(), k)
	}
	n.core.SkipCycles(k)
	if hs := n.core.HeadState(); hs.Valid && hs.Ready {
		if p := n.headPlan(hs); p.wait == waitFullStall {
			*p.stalls += k
		}
	}
}

// account classifies this cycle for the Figure 9 breakdown.
func (n *Node) account() {
	if !n.accounting {
		return
	}
	if n.core.Halted() {
		n.accounting = false
		return
	}
	cl := stats.Busy
	if n.core.RetiredThisCycle == 0 {
		cl = stallClass(n.core.HeadStall)
	}
	n.st.Account(cl, n.engine.YoungestEpoch())
}

// stallClass maps the reason the core's head did not retire onto the
// Figure 9 cycle class it charges.
func stallClass(why cpu.StallReason) stats.CycleClass {
	switch why {
	case cpu.StallSBFull:
		return stats.SBFull
	case cpu.StallSBDrain:
		return stats.SBDrain
	}
	return stats.Other
}

// DebugString dumps miss/parking/cleaning state for diagnostics.
func (n *Node) DebugString() string {
	out := ""
	for _, m := range n.mshrOrder {
		out += fmt.Sprintf("  mshr %#x wantX=%v sent=%v upg=%v fromL2=%v waiters=%d\n",
			uint64(m.block), m.wantX, m.sent, m.upgrade, m.fromL2, len(m.waiters))
	}
	for _, p := range n.parked {
		out += fmt.Sprintf("  parked %v from=%d cov=%v deadline=%d\n", p.msg, p.src, p.isCoV, p.deadline)
	}
	for _, b := range n.cleanList {
		out += fmt.Sprintf("  cleaning %#x until %d\n", uint64(b), n.cleanings[b])
	}
	if n.coalSB != nil {
		for _, e := range n.coalSB.Entries() {
			line := "absent"
			if l := n.l1.Peek(e.Block); l != nil {
				line = l.State.String()
			}
			out += fmt.Sprintf("  sb entry %#x epoch=%d l1=%s\n", uint64(e.Block), e.Epoch, line)
		}
	}
	out += fmt.Sprintf("  engine: active=%v\n", n.engine.ActiveEpochs())
	return out
}

func (n *Node) invariant(cond bool, format string, args ...any) {
	if !cond {
		panic(fmt.Sprintf("node %d @%d: %s", n.id, n.now, fmt.Sprintf(format, args...)))
	}
}

// invariantAddr is the hot-path variant of invariant: the ...any form boxes
// its arguments on every call even when the condition holds, which made the
// per-fill and per-probe checks the largest allocation sites in the
// simulator. The address is formatted only on failure.
func (n *Node) invariantAddr(cond bool, msg string, a memtypes.Addr) {
	if !cond {
		panic(fmt.Sprintf("node %d @%d: %s %#x", n.id, n.now, msg, uint64(a)))
	}
}

// put stores v under k in *m, creating the map on first use.
func put[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}
