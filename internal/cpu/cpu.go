// Package cpu models the out-of-order processor core of Figure 6: a 4-wide,
// 96-entry-ROB machine with speculative out-of-order load execution,
// store-to-load forwarding, optimistic memory disambiguation with replay,
// a bimodal branch predictor, and in-order retirement.
//
// The core is "functional-at-execute": instruction values are computed when
// the timing model executes them, against the simulated memory system. All
// recovery paths (branch mispredicts, in-window memory-ordering replays
// triggered by load-queue snooping, and post-retirement speculation aborts
// driven by the InvisiFence engine) restore architectural register state and
// refetch, so rollback is functionally real.
//
// Memory-ordering policy is delegated to a Backend (implemented by the node):
// the core asks the backend to retire every load, store, atomic, and fence,
// and the backend applies the Figure 2 consistency rules or initiates
// InvisiFence speculation.
package cpu

import (
	"fmt"
	"math/bits"

	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
)

// StallReason classifies why retirement is blocked this cycle.
type StallReason uint8

const (
	// StallNone: not stalled (or ROB empty).
	StallNone StallReason = iota
	// StallSBFull: a store cannot retire because the store buffer is full.
	StallSBFull
	// StallSBDrain: retirement waits for the store buffer to drain due to
	// an ordering requirement.
	StallSBDrain
	// StallOther: data stalls (load miss at head, atomic data wait, ...).
	StallOther
)

var stallNames = [...]string{"none", "sb-full", "sb-drain", "other"}

// String implements fmt.Stringer.
func (r StallReason) String() string {
	if int(r) < len(stallNames) {
		return stallNames[r]
	}
	return fmt.Sprintf("StallReason(%d)", uint8(r))
}

// LoadStatus is the immediate outcome of Backend.StartLoad.
type LoadStatus uint8

const (
	// LoadForwarded: value supplied by the post-retirement store buffer.
	LoadForwarded LoadStatus = iota
	// LoadHit: value supplied by the L1 after its hit latency.
	LoadHit
	// LoadMiss: a fill is outstanding; the backend will call
	// Core.FillLoad(tag, value) when data arrives.
	LoadMiss
	// LoadRetry: no resources (MSHR full); the core retries next cycle.
	LoadRetry
)

// LoadResult is the backend's answer to StartLoad.
type LoadResult struct {
	Status  LoadStatus
	Value   memtypes.Word
	ReadyAt uint64 // cycle the value may feed dependents (Forwarded/Hit)
}

// Backend is the node-side memory system and consistency/speculation policy
// the core talks to.
type Backend interface {
	// StartLoad begins a load's memory access. tag identifies the request
	// for a later FillLoad on a miss.
	StartLoad(tag uint64, addr memtypes.Addr) LoadResult
	// RetireLoad applies retirement policy for a load whose value is
	// already bound. op distinguishes plain loads from acquiring loads
	// (ld.acq); fromL1 reports whether the value came from the memory
	// system (as opposed to in-window forwarding).
	RetireLoad(op isa.Op, addr memtypes.Addr, fromL1 bool) (bool, StallReason)
	// RetireStore attempts to make a store visible (L1 write or store
	// buffer entry) at retirement. op distinguishes plain stores from
	// releasing stores (st.rel).
	RetireStore(op isa.Op, addr memtypes.Addr, val memtypes.Word) (bool, StallReason)
	// RetireAtomic attempts to perform an atomic read-modify-write at
	// retirement, returning the old value when it completes.
	RetireAtomic(op isa.Op, addr memtypes.Addr, opA, opB memtypes.Word) (bool, memtypes.Word, StallReason)
	// RetireFence applies retirement policy for a memory fence.
	RetireFence() (bool, StallReason)
	// OnRetireInstr is called once per retired instruction (chunk sizing,
	// forward-progress tracking).
	OnRetireInstr()
}

// Config sizes the core (defaults follow Figure 6).
type Config struct {
	FetchWidth      int
	IssueWidth      int
	RetireWidth     int
	ROBSize         int
	MemPorts        int
	RedirectPenalty uint64
	PredictorBits   int // log2 of bimodal predictor entries
	// IssueWindow sizes the issue queue: only the IssueWindow oldest
	// waiting instructions, ready or not, are candidates to issue (the
	// issue queue is smaller than the ROB in real machines).
	IssueWindow int
}

// DefaultConfig returns the Figure 6 core: 4-wide, 96-entry ROB, 3 memory
// ports, 8-stage pipeline (a 6-cycle redirect penalty).
func DefaultConfig() Config {
	return Config{
		FetchWidth:      4,
		IssueWidth:      4,
		RetireWidth:     4,
		ROBSize:         96,
		MemPorts:        3,
		RedirectPenalty: 6,
		PredictorBits:   12,
		IssueWindow:     40,
	}
}

// entry states.
const (
	sDispatched uint8 = iota
	sIssued           // executing (doneAt pending) or load access in flight
	sDone             // value bound (for atomics: only after retirement action)
)

// robEntry is one ROB slot: 128 bytes, two cache lines. The first line
// holds what promote, the issue walk, the wake-ups and a consumer's operand
// lookup read of every entry they touch; the second holds the bound
// operand values, the store data and the wake links. The instruction is
// not copied: it is c.prog.Instrs[pc] (instr), and the entry keeps only its
// opcode, which every rule tests, and its destination register, which
// retirement and a rename rebuild write.
type robEntry struct {
	seq    uint64
	doneAt uint64
	value  memtypes.Word
	addr   memtypes.Addr

	// Operand capture: srcRef[k] is the ROB slot of operand k's producer
	// while the operand is unbound, -1 once it is bound in opVal[k]. The
	// producer may retire before the operand binds; operandAt then reads
	// the architectural file under srcReg[k].
	srcRef  [3]int32
	waiters int32 // issue wake-up: head of the consumer list (see wnext)
	pc      int32 // 32-bit pcs: New rejects programs that do not fit
	op      isa.Op
	rd      isa.Reg // destination register; R0 when the op writes none
	srcReg  [3]isa.Reg
	state   uint8
	used    bool
	addrOK  bool

	// Load bookkeeping.
	pendFill bool // waiting for FillLoad
	valueOK  bool // value bound (may still be before doneAt)
	fwdSQ    bool // value forwarded from an in-flight (in-window) store
	fromL1   bool // value came from the memory system (SB/L1/fill)

	opVal    [3]memtypes.Word
	wakeAt   uint64        // issue wake-up: the cycle a pending verdict comes due
	dataVal  memtypes.Word // staged store data
	fwdSeq   uint64        // load: seq of the forwarding store
	predNext int32         // fetch-time predicted successor pc

	// Issue wake-up (Core.file): waiters heads the list of consumer
	// operands waiting for this entry's result time to become known. A link
	// is slot<<2|k, chained through the consumer's wnext[k]; -1 ends it.
	// Dispatch pushes at the head, so a list runs youngest consumer first.
	wnext [3]int32
}

// Core is one simulated processor core.
type Core struct {
	cfg     Config
	id      int
	prog    *isa.Program
	backend Backend
	now     uint64

	archRegs [isa.NumRegs]memtypes.Word
	pc       int
	halted   bool

	rob         []robEntry // ring of robSlots(cfg, prog) slots
	head        int
	tail        int // next free slot index
	count       int
	nextSeq     uint64
	rename      [isa.NumRegs]int32 // ROB slot of latest producer, -1 = architectural
	fetchPC     int
	stallTil    uint64
	fetchedHalt bool

	// LQ/SQ: slots of in-flight loads and stores/atomics in program
	// order. execQ holds the executing entries awaiting completion, ordered
	// by doneAt, so promote pops only the due prefix.
	loadQ  slotQueue
	storeQ slotQueue
	execQ  []execRec

	// Issue wake-up: an entry's issue verdict (classifyIssue) is computed
	// when something that can change it happens, not every cycle (file).
	// disp holds exactly the not-yet-issued (sDispatched) slots, nDisp of
	// them; each is in at most one of ready (its verdict is <= now) and pend
	// (a finite future verdict, due at its wakeAt). One in neither waits for
	// an event: its producer's result time (waiters), or an older same-word
	// atomic's commit or a store's address (wakeLoads).
	disp, ready, pend slotSet
	nDisp             int
	// pendMin is a conservative lower bound on every pend entry's wakeAt
	// (never late: file lowers it, wakeDue recomputes it, squashes only
	// remove entries).
	pendMin uint64

	pred     []uint8 // bimodal 2-bit counters
	predMask uint32

	// Per-cycle outputs for the node's accounting.
	RetiredThisCycle int
	HeadStall        StallReason

	// Stats.
	Retired, RetiredLoads, RetiredStores, RetiredAtomics, RetiredFences uint64
	Mispredicts, Replays, Squashes                                      uint64
	FetchedWrongPath                                                    uint64
}

// New creates a core running prog with the given initial register state.
func New(id int, cfg Config, prog *isa.Program, regs [isa.NumRegs]memtypes.Word, backend Backend) *Core {
	return new(Core).Init(id, cfg, prog, regs, backend)
}

// Init builds c as a core about to fetch prog's first instruction and
// returns it, reusing its ring, slot sets, predictor and queues (DESIGN.md
// §2).
func (c *Core) Init(id int, cfg Config, prog *isa.Program, regs [isa.NumRegs]memtypes.Word, backend Backend) *Core {
	if cfg.ROBSize <= 0 {
		panic("cpu: ROB size must be positive")
	}
	if !pcsFit(prog) {
		panic("cpu: program pcs do not fit in 32 bits")
	}
	// Fetch predicts only pcs below len(prog.Instrs), so pc & predMask picks
	// the same counter in a table of nextPow2(len) entries as in the full
	// 1<<PredictorBits one.
	preds := 1 << cfg.PredictorBits
	if n := max(len(prog.Instrs), 1); n < preds {
		preds = 1 << bits.Len(uint(n-1))
	}
	n := robSlots(cfg, prog)
	words := (n + 63) >> 6
	// One array backs the three slot sets; disp's capacity spans it, so a
	// rebuild recovers it from disp.
	sets := memtypes.Resize(c.disp[:cap(c.disp)], 3*words)
	*c = Core{
		cfg:      cfg,
		id:       id,
		prog:     prog,
		backend:  backend,
		archRegs: regs,
		rob:      memtypes.Resize(c.rob, n),
		loadQ:    slotQueue{buf: c.loadQ.buf[:0]},
		storeQ:   slotQueue{buf: c.storeQ.buf[:0]},
		execQ:    c.execQ[:0],
		disp:     sets[:words],
		ready:    sets[words : 2*words : 2*words],
		pend:     sets[2*words:],
		pendMin:  memtypes.NoEvent,
		pred:     memtypes.Resize(c.pred, preds),
		predMask: uint32(preds - 1),
	}
	c.archRegs[isa.R0] = 0
	for i := range c.rename {
		c.rename[i] = -1
	}
	// Weakly-taken initial counters help tight spin loops converge fast.
	for i := range c.pred {
		c.pred[i] = 2
	}
	return c
}

// robSlots is the length of the ROB ring for prog. cfg.ROBSize stays the
// logical capacity (fetch gating, slot ages), but a loop-free program —
// every branch target above its pc; the ISA has no indirect jumps — never
// dispatches into a slot above the pc it dispatches: sequential fetch,
// mispredict redirects and replays all keep tail <= fetchPC, and FlushAll
// restarts the ring at slot 0. Its slots therefore stay below
// len(prog.Instrs), and the ring never wraps.
func robSlots(cfg Config, prog *isa.Program) int {
	n := len(prog.Instrs)
	if n >= cfg.ROBSize {
		return cfg.ROBSize
	}
	for pc, in := range prog.Instrs {
		if in.Op.IsBranch() && in.Target <= pc {
			return cfg.ROBSize
		}
	}
	return n
}

// pcsFit reports whether every pc the core can hold fits the ROB entry's
// 32-bit pc fields: fetch only dispatches pcs below len(prog.Instrs), and a
// predicted or resolved successor is the next pc or a branch target.
func pcsFit(prog *isa.Program) bool {
	fits := func(pc int) bool { return int(int32(pc)) == pc }
	if !fits(len(prog.Instrs)) {
		return false
	}
	for _, in := range prog.Instrs {
		if in.Op.IsBranch() && !fits(in.Target) {
			return false
		}
	}
	return true
}

// instr is entry e's instruction.
func (c *Core) instr(e *robEntry) *isa.Instr { return &c.prog.Instrs[e.pc] }

// Halted reports whether the program has retired its Halt.
func (c *Core) Halted() bool { return c.halted }

// ArchReg returns the committed value of a register.
func (c *Core) ArchReg(r isa.Reg) memtypes.Word { return c.archRegs[r] }

// ArchPC returns the committed program counter.
func (c *Core) ArchPC() int { return c.pc }

// ROBOccupancy returns the number of in-flight instructions.
func (c *Core) ROBOccupancy() int { return c.count }

// slotAge is slot's distance from head in ring order.
func (c *Core) slotAge(slot int) int {
	if d := slot - c.head; d >= 0 {
		return d
	}
	return slot - c.head + c.cfg.ROBSize
}

// SyncNow re-aligns the core's internal clock before the node processes
// incoming messages. Message-driven paths (FillLoad completions, SnoopBlock
// replays, FlushAll aborts) read c.now before Tick runs; the lock-step loop
// guarantees it then equals the previous cycle, and redirect penalties are
// anchored to it. After an idle-skip jump the last ticked cycle may be
// several cycles back, so the node re-anchors explicitly to keep both loops
// bit-identical.
func (c *Core) SyncNow(now uint64) { c.now = now }

// Tick advances the core one cycle: complete, retire, issue, fetch.
func (c *Core) Tick(now uint64) {
	c.now = now
	c.RetiredThisCycle = 0
	c.HeadStall = StallNone
	if c.halted {
		return
	}
	c.promote()
	c.retire()
	c.issue()
	c.fetch()
}

// execRec is an issued entry awaiting completion: its slot, the seq that
// held the slot when it was queued, and its doneAt (fixed while it waits).
type execRec struct {
	at   uint64
	seq  uint64
	slot int
}

// promote marks finished executions done so they can retire this cycle.
// execQ is ordered by doneAt, so only the due prefix is visited; an entry
// squashed since it was queued no longer holds its seq and is dropped.
func (c *Core) promote() {
	k := 0
	for ; k < len(c.execQ) && c.execQ[k].at <= c.now; k++ {
		r := c.execQ[k]
		if e := &c.rob[r.slot]; e.used && e.seq == r.seq {
			e.state = sDone
		}
	}
	if k > 0 {
		c.execQ = c.execQ[:copy(c.execQ, c.execQ[k:])]
	}
}

// queueExec registers an issued entry for completion at its doneAt. Entries
// are mostly queued in doneAt order, so the insertion point is found from
// the back; equal times keep queueing order.
func (c *Core) queueExec(slot int) {
	e := &c.rob[slot]
	r := execRec{at: e.doneAt, seq: e.seq, slot: slot}
	i := len(c.execQ)
	c.execQ = append(c.execQ, r)
	for ; i > 0 && c.execQ[i-1].at > r.at; i-- {
		c.execQ[i] = c.execQ[i-1]
	}
	c.execQ[i] = r
}

// ---------------------------------------------------------------- retire

func (c *Core) retire() {
	for n := 0; n < c.cfg.RetireWidth; n++ {
		if c.count == 0 {
			if c.RetiredThisCycle == 0 {
				c.HeadStall = StallOther
			}
			return
		}
		e := &c.rob[c.head]
		if c.headReadyAt(e) > c.now {
			c.stallAt(StallOther)
			return
		}
		op := e.op
		ok, why, counter := true, StallNone, (*uint64)(nil)
		switch {
		case op == isa.Halt:
			c.commitEntry(e)
			c.halted = true
			return
		case op == isa.Fence:
			ok, why = c.backend.RetireFence()
			counter = &c.RetiredFences
		case op.IsLoad():
			ok, why = c.backend.RetireLoad(op, e.addr, e.fromL1)
			counter = &c.RetiredLoads
		case op.IsStore():
			ok, why = c.backend.RetireStore(op, e.addr, e.dataVal)
			counter = &c.RetiredStores
		case op.IsAtomic():
			opA, opB := c.atomicData(e)
			var old memtypes.Word
			if ok, old, why = c.backend.RetireAtomic(op, e.addr, opA, opB); ok {
				e.value, e.state = old, sDone
			}
			counter = &c.RetiredAtomics
		}
		if !ok {
			c.stallAt(why)
			return
		}
		if counter != nil {
			*counter++
		}
		c.commitEntry(e)
	}
}

// headReadyAt is the head-readiness rule: the first cycle retire() lets the
// head entry e reach its retirement action (<= c.now: this cycle), or
// memtypes.NoEvent when only an outside event can get it there (a fill, an
// atomic producer's retirement, or — for an entry not issued yet — its
// issue, which the issue term covers). Halt and Fence need no execution;
// an atomic needs its address and its data operands; everything else
// needs its result (resultAt).
func (c *Core) headReadyAt(e *robEntry) uint64 {
	switch op := e.op; {
	case op == isa.Halt || op == isa.Fence:
		return 0
	case op.IsAtomic():
		if !e.addrOK {
			return memtypes.NoEvent
		}
		_, at := c.operandAt(e, 1)
		if op == isa.Cas {
			_, b := c.operandAt(e, 2)
			at = max(at, b)
		}
		return at
	}
	return c.resultAt(e)
}

// atomicData resolves an atomic's data operands: the compare (or addend,
// or swap) value and, for CAS, the swap-in value.
func (c *Core) atomicData(e *robEntry) (opA, opB memtypes.Word) {
	opA, _ = c.operandAt(e, 1)
	if e.op == isa.Cas {
		opB, _ = c.operandAt(e, 2)
	}
	return opA, opB
}

func (c *Core) stallAt(why StallReason) {
	if c.RetiredThisCycle == 0 {
		c.HeadStall = why
	}
}

// commitEntry retires the head entry: architectural state update and
// rename release. In-flight consumers referencing this slot detect the
// retirement by seq mismatch and read the architectural file instead.
func (c *Core) commitEntry(e *robEntry) {
	slot := c.head
	if e.rd != isa.R0 {
		c.archRegs[e.rd] = e.value
		if c.rename[e.rd] == int32(slot) {
			c.rename[e.rd] = -1
		}
	}
	if c.loadQ.len() > 0 && c.loadQ.slots()[0] == slot {
		c.loadQ.popHead()
	}
	if c.storeQ.len() > 0 && c.storeQ.slots()[0] == slot {
		c.storeQ.popHead()
	}
	// Halt and Fence can retire straight out of sDispatched (retirement
	// policy handles them at the head before issue ever sees them).
	if c.disp.has(slot) {
		c.undispatch(slot)
	}
	c.pc = int(e.predNext) // committed successor (mispredicts were squashed at execute)
	e.used = false
	if c.head++; c.head == c.cfg.ROBSize {
		c.head = 0
	}
	c.count--
	c.Retired++
	c.RetiredThisCycle++
	if e.op.IsAtomic() {
		// The atomic's value binds here, and loads waiting on it may go.
		c.wakeWaiters(slot)
		c.wakeLoads(e)
	}
	c.backend.OnRetireInstr()
}

// ----------------------------------------------------------------- issue

// issue walks the ready entries of the issue window in age order. The
// window is positional: the IssueWindow oldest dispatched entries, ready or
// not. A store addressed earlier in the walk re-files the younger loads it
// affects (wakeLoads) before the walk reaches them; a squash removes the
// younger entries from the walk and a mispredict ends it.
func (c *Core) issue() {
	c.wakeDue()
	issued, memIssued, end := 0, 0, -1
	for a := 0; issued < c.cfg.IssueWidth; a++ {
		s := c.nextIn(c.ready, a)
		if s < 0 {
			break
		}
		if end < 0 {
			end = c.windowEnd()
		}
		if a = c.slotAge(s); a >= end {
			break
		}
		e := &c.rob[s]
		c.bindOps(e) // a ready entry's operands can all bind
		switch op := e.op; {
		case op == isa.Halt || op == isa.Fence:
			// No execution; retirement policy handles them at the head.
			e.state = sDone
			e.doneAt = c.now
			c.undispatch(s)
			continue
		case op.IsLoad():
			if memIssued >= c.cfg.MemPorts {
				continue
			}
			memIssued++
			// The verdict stands (only events change it, and they re-file
			// the load), but a store it would forward from may have retired
			// since: search again.
			c.issueLoad(s, e, c.classifyIssue(e).fwd)
		case op.IsStore() || op.IsAtomic():
			// An atomic only generates its address; the RMW happens at
			// retirement.
			e.addr = effAddr(e.opVal[0], c.instr(e).Imm)
			e.addrOK = true
			e.state = sIssued
			e.doneAt = c.now
			if op.IsStore() {
				e.dataVal = e.opVal[1]
				e.state = sDone
			}
			c.undispatch(s)
			c.checkStoreConflicts(s, e)
			c.wakeLoads(e)
		case op.IsBranch():
			c.undispatch(s)
			if c.executeBranch(s, e) {
				return // younger entries are gone
			}
		default:
			in := c.instr(e)
			e.value = evalALU(in, e.opVal[0], e.opVal[1])
			e.state = sIssued
			e.doneAt = c.now + op.Latency(in.Imm)
			c.queueExec(s)
			c.undispatch(s)
			c.wakeWaiters(s)
		}
		issued++
	}
}

// nextIn returns the oldest member of m whose age is at least a, or -1.
// Only live slots are ever members, so the search runs from age a to the
// youngest live slot, wrapping from the end of the ring to slot 0.
func (c *Core) nextIn(m slotSet, a int) int {
	n := len(c.rob)
	end := c.head + c.count // past the youngest live slot, unwrapped
	if lo := c.head + a; lo < n {
		if s := m.first(lo, min(n, end)); s >= 0 || end <= n {
			return s
		}
		a = n - c.head
	}
	return m.first(c.head+a-n, end-n)
}

// windowEnd is the age at which the issue window ends: that of the oldest
// dispatched entry behind the IssueWindow oldest ones.
func (c *Core) windowEnd() int {
	w := c.cfg.IssueWindow
	if w <= 0 || c.nDisp <= w {
		return c.cfg.ROBSize
	}
	s, n := c.disp.nth(c.head, len(c.rob), w)
	if s < 0 {
		s, _ = c.disp.nth(0, c.head, w-n)
	}
	return c.slotAge(s)
}

// file records dispatched entry s's issue verdict at: ready, pending until
// at, or (NoEvent) waiting for an event that re-files it.
func (c *Core) file(s int, at uint64) {
	c.ready.del(s)
	c.pend.del(s)
	switch {
	case at <= c.now:
		c.ready.add(s)
	case at != memtypes.NoEvent:
		c.pend.add(s)
		c.rob[s].wakeAt = at
		c.pendMin = min(c.pendMin, at)
	}
}

// wake re-classifies dispatched entry s and files the verdict.
func (c *Core) wake(s int) { c.file(s, c.classifyIssue(&c.rob[s]).at) }

// wakeDue re-files the pending entries whose verdict has come due.
func (c *Core) wakeDue() {
	if c.now < c.pendMin {
		return
	}
	c.pendMin = memtypes.NoEvent
	for i, w := range c.pend {
		for ; w != 0; w &= w - 1 {
			s := i<<6 | bits.TrailingZeros64(w)
			switch at := c.rob[s].wakeAt; {
			case at > c.now:
				c.pendMin = min(c.pendMin, at)
			case c.rob[s].op.IsLoad():
				c.wake(s) // its operand is due; its store-queue search is not
			default:
				c.file(s, at) // operand times are fixed once known
			}
		}
	}
}

// wakeWaiters re-files the entries waiting for entry p's result time,
// which has just become known: p issued (an ALU op, a load hit or
// forward), its fill arrived, or (an atomic) it committed. A link whose
// slot has since been squashed and refilled is skipped unless its new
// entry is also p's consumer (the age test of operandAt).
func (c *Core) wakeWaiters(p int) {
	pe := &c.rob[p]
	for l := pe.waiters; l >= 0; {
		s, k := int(l>>2), l&3
		e := &c.rob[s]
		l = e.wnext[k]
		if e.used && e.state == sDispatched && int(e.srcRef[k]) == p && pe.seq < e.seq {
			c.wake(s)
		}
	}
	pe.waiters = -1
}

// wakeLoads re-files the dispatched loads younger than st whose address is
// st's word: st, a store or atomic, just got its address, or the atomic
// committed. Only their store-queue search can have changed.
func (c *Core) wakeLoads(st *robEntry) {
	lq := c.loadQ.slots()
	for i := len(lq) - 1; i >= 0; i-- {
		l := &c.rob[lq[i]]
		if l.seq < st.seq {
			break
		}
		if v, at := c.operandAt(l, 0); l.state == sDispatched && at <= c.now && effAddr(v, c.instr(l).Imm) == st.addr {
			c.wake(lq[i])
		}
	}
}

// undispatch removes slot from the dispatched set the moment it leaves
// sDispatched (issue, head retirement of Halt/Fence, squash).
func (c *Core) undispatch(slot int) {
	c.disp.del(slot)
	c.ready.del(slot)
	c.pend.del(slot)
	c.nDisp--
}

// resultAt is the first cycle entry e's result can feed a consumer (<=
// c.now: it can now), or memtypes.NoEvent while it has no completion time:
// not issued, waiting for a fill, or an atomic (whose value binds at
// retirement). An executing entry is promoted to sDone at doneAt, before
// issue runs that cycle, so its result is usable from the next cycle on.
func (c *Core) resultAt(e *robEntry) uint64 {
	switch {
	case e.state == sDone:
		return e.doneAt
	case e.state == sIssued && !e.pendFill && !e.op.IsAtomic():
		return max(c.now+1, e.doneAt)
	}
	return memtypes.NoEvent
}

// operandAt is the operand rule, read-only: operand k of e's value and the
// first cycle it can bind (<= c.now: it can now; memtypes.NoEvent: only a
// fill or an atomic producer's retirement can bind it). The value comes
// from the entry's bound slot, from the producer's ROB slot, or — when the
// producer has retired — from the architectural file: any in-flight
// intervening writer of the same register would have been the rename
// source instead.
//
// The producer still holds slot p exactly when p is live with a seq below
// e's. A live producer is older than its consumer. A squash that removes it
// removes e too, so once it is gone it retired; e was in flight then (it
// read the rename table while the producer was), so whatever dispatched
// into p since is younger than e.
func (c *Core) operandAt(e *robEntry, k int) (memtypes.Word, uint64) {
	p := e.srcRef[k]
	if p < 0 {
		return e.opVal[k], 0
	}
	pe := &c.rob[p]
	if !pe.used || pe.seq > e.seq {
		return c.archRegs[e.srcReg[k]], 0
	}
	return pe.value, c.resultAt(pe)
}

// bindOps binds every operand of e that operandAt can resolve by now, so
// later resolutions are a flag test. The issue walk binds the entries it
// visits; binding earlier would only save lookups.
func (c *Core) bindOps(e *robEntry) {
	for k := 0; k < 3; k++ {
		if e.srcRef[k] < 0 {
			continue
		}
		if v, at := c.operandAt(e, k); at <= c.now {
			e.opVal[k], e.srcRef[k] = v, -1
		}
	}
}

// issuePlan is the issue classifier's verdict on a dispatched entry.
type issuePlan struct {
	// at is the first cycle the entry can issue (<= c.now: this cycle), or
	// memtypes.NoEvent when only an outside event can make it issueable.
	at uint64
	// fwd is, for a load that can issue, the ROB slot of the older store it
	// forwards from, or -1 when it goes to the memory system.
	fwd int
}

// classifyIssue is the issue rule, read-only. Loads and atomics need only
// rs1 (address generation; an atomic's data operands are the head rule's
// business), everything else every source operand. A load whose address
// is known searches the store queue, youngest first, for the nearest older
// store or atomic to the same word: a store forwards its staged data; an
// atomic's result is unknown until it retires, so the load waits: only
// the atomic's commit, or an intervening store getting its address, can
// end that (wakeLoads). A load with no match goes to memory, optimistically
// past older stores whose address is unknown (checkStoreConflicts replays
// it if that was wrong).
func (c *Core) classifyIssue(e *robEntry) issuePlan {
	need := 3
	if e.op.IsLoad() || e.op.IsAtomic() {
		need = 1
	}
	var at uint64
	for k := 0; k < need; k++ {
		if e.srcRef[k] >= 0 {
			_, t := c.operandAt(e, k)
			at = max(at, t)
		}
	}
	if at > c.now || !e.op.IsLoad() {
		return issuePlan{at: at, fwd: -1}
	}
	base, _ := c.operandAt(e, 0)
	addr := effAddr(base, c.instr(e).Imm)
	sq := c.storeQ.slots()
	for i := len(sq) - 1; i >= 0; i-- {
		o := &c.rob[sq[i]]
		if o.seq >= e.seq || !o.addrOK || o.addr != addr {
			continue // younger than the load, or not known to match
		}
		if o.op.IsStore() {
			return issuePlan{at: at, fwd: sq[i]}
		}
		return issuePlan{at: memtypes.NoEvent, fwd: -1}
	}
	return issuePlan{at: at, fwd: -1}
}

// effAddr is a memory instruction's word-aligned effective address, from
// its base register's value and its offset.
func effAddr(base memtypes.Word, imm int64) memtypes.Addr {
	return memtypes.WordAlign(memtypes.Addr(base) + memtypes.Addr(imm))
}

// issueLoad applies the issue classifier's verdict for a load: forward
// from the older store in slot fwd, or, when fwd < 0, start the memory
// access. Either consumes a memory port; only a retry leaves the load
// dispatched.
func (c *Core) issueLoad(slot int, e *robEntry, fwd int) {
	e.addr = effAddr(e.opVal[0], c.instr(e).Imm)
	e.addrOK = true
	// An in-window forward binds like a store-buffer one: not from the
	// L1, usable next cycle.
	res := LoadResult{Status: LoadForwarded, ReadyAt: c.now + 1}
	if fwd >= 0 {
		res.Value = c.rob[fwd].dataVal
		e.fwdSQ, e.fwdSeq = true, c.rob[fwd].seq
	} else if res = c.backend.StartLoad(e.seq, e.addr); res.Status == LoadRetry {
		return // port consumed; retry next cycle
	}
	e.state = sIssued
	c.undispatch(slot)
	if res.Status == LoadMiss {
		e.pendFill, e.fromL1 = true, true
		e.doneAt = ^uint64(0) >> 1
		return
	}
	e.value, e.valueOK = res.Value, true
	e.fromL1 = res.Status == LoadHit
	e.doneAt = res.ReadyAt
	c.queueExec(slot)
	c.wakeWaiters(slot)
}

// checkStoreConflicts implements optimistic disambiguation: when a store or
// atomic computes its address, the oldest younger load that executed with a
// value not forwarded from it and that overlaps its word is replayed. A
// load whose miss is still outstanding has executed too: its fill brings
// the word as it was before this store.
func (c *Core) checkStoreConflicts(slot int, st *robEntry) {
	for _, s := range c.loadQ.slots() {
		l := &c.rob[s]
		if l.seq <= st.seq {
			continue
		}
		if (l.valueOK || l.pendFill) && l.addrOK && l.addr == st.addr && l.fwdSeq != st.seq {
			c.Replays++
			c.squashFrom(s)
			return
		}
	}
}

// executeBranch resolves a branch at issue and redirects on mispredict.
// It reports whether a mispredict squashed younger entries.
func (c *Core) executeBranch(slot int, e *robEntry) bool {
	actual := c.branchTarget(e)
	e.state = sDone
	e.doneAt = c.now
	e.value = 0
	pc := int(e.pc)
	c.updatePredictor(pc, actual != pc+1)
	if actual == int(e.predNext) {
		return false
	}
	c.Mispredicts++
	e.predNext = int32(actual)
	if c.slotAge(slot)+1 < c.count {
		c.squashSlots((slot + 1) % c.cfg.ROBSize)
	}
	c.fetchPC = actual
	c.fetchedHalt = false
	c.stallTil = c.now + c.cfg.RedirectPenalty
	return true
}

func (c *Core) branchTarget(e *robEntry) int {
	in := c.instr(e)
	taken := false
	switch in.Op {
	case isa.Br:
		taken = true
	case isa.Beq:
		taken = e.opVal[0] == e.opVal[1]
	case isa.Bne:
		taken = e.opVal[0] != e.opVal[1]
	case isa.Bltu:
		taken = e.opVal[0] < e.opVal[1]
	case isa.Bgeu:
		taken = e.opVal[0] >= e.opVal[1]
	}
	if taken {
		return in.Target
	}
	return int(e.pc) + 1
}

// ----------------------------------------------------------------- fetch

func (c *Core) fetch() {
	if c.now < c.stallTil || c.fetchedHalt {
		return
	}
	for n := 0; n < c.cfg.FetchWidth && c.count < c.cfg.ROBSize; n++ {
		if c.fetchPC < 0 || c.fetchPC >= len(c.prog.Instrs) {
			// Fell off the program (wrong path); stop until redirected.
			c.FetchedWrongPath++
			return
		}
		in := &c.prog.Instrs[c.fetchPC]
		next := c.fetchPC + 1
		if in.Op == isa.Br {
			next = in.Target
		} else if in.Op.IsCondBranch() && c.predictTaken(c.fetchPC) {
			next = in.Target
		}
		c.dispatch(c.fetchPC, in, next)
		if in.Op == isa.Halt {
			c.fetchedHalt = true
			return
		}
		c.fetchPC = next
	}
}

func (c *Core) dispatch(pc int, in *isa.Instr, predNext int) {
	slot := c.tail
	e := &c.rob[slot]
	c.nextSeq++
	// Field-wise reset instead of *e = robEntry{...}: the composite literal
	// zeroes and copies the whole entry per dispatched instruction, which
	// profiled as the core's single hottest line. Every field read before
	// being written is reset here; opVal[k] is only read once bind or
	// bindOps wrote it, and srcReg[k] only while srcRef[k] >= 0, which bind
	// sets with it, so their stale contents are dead.
	e.used = true
	e.seq = c.nextSeq
	e.waiters = -1
	e.pc = int32(pc)
	e.op = in.Op
	e.rd = isa.R0
	if in.Op.WritesRd() {
		e.rd = in.Rd
	}
	e.predNext = int32(predNext)
	e.state = sDispatched
	e.doneAt = 0
	e.value = 0
	e.addr = 0
	e.addrOK = false
	e.dataVal = 0
	e.valueOK = false
	e.fwdSQ = false
	e.fwdSeq = 0
	e.fromL1 = false
	e.pendFill = false
	e.srcRef = [3]int32{-1, -1, -1}
	// bind resolves operand k by the operand rule: from the architectural
	// file, or from the in-flight producer, bound now if its result is
	// ready. An operand whose producer has no result time yet waits on the
	// producer's list.
	bind := func(k int, r isa.Reg) {
		p := c.rename[r]
		if p < 0 {
			e.opVal[k] = c.archRegs[r] // R0 is never renamed and reads 0
			return
		}
		pe := &c.rob[p]
		at := c.resultAt(pe)
		if at <= c.now {
			e.opVal[k] = pe.value
			return
		}
		e.srcRef[k], e.srcReg[k] = p, r
		if at == memtypes.NoEvent {
			e.wnext[k], pe.waiters = pe.waiters, int32(slot<<2|k)
		}
	}
	switch {
	case in.Op == isa.MovI || in.Op == isa.Delay || in.Op == isa.Nop || in.Op == isa.Halt || in.Op == isa.Fence || in.Op == isa.Br:
		// No sources.
	case in.Op == isa.AddI || in.Op == isa.ShlI || in.Op == isa.ShrI || in.Op.IsLoad():
		bind(0, in.Rs1)
	case in.Op == isa.Cas:
		bind(0, in.Rs1)
		bind(1, in.Rs2)
		bind(2, in.Rs3)
	default:
		bind(0, in.Rs1)
		bind(1, in.Rs2)
	}
	if e.rd != isa.R0 {
		c.rename[e.rd] = int32(slot)
	}
	if in.Op.IsLoad() {
		c.loadQ.push(slot)
	} else if in.Op.IsStore() || in.Op.IsAtomic() {
		c.storeQ.push(slot)
	}
	c.disp.add(slot)
	c.nDisp++
	c.wake(slot)
	if c.tail++; c.tail == c.cfg.ROBSize {
		c.tail = 0
	}
	c.count++
}

// ---------------------------------------------------------------- squash

// squashFrom squashes the entry at slot and everything younger, restarting
// fetch at that entry's pc (replay).
func (c *Core) squashFrom(slot int) {
	pc := c.rob[slot].pc
	c.squashSlots(slot)
	c.fetchPC = int(pc)
	c.fetchedHalt = false
	c.stallTil = c.now + c.cfg.RedirectPenalty
}

// squashSlots removes the entry at slot and everything younger from the ROB
// and rebuilds the rename table.
func (c *Core) squashSlots(slot int) {
	n := c.slotAge(slot)
	for i, s := n, slot; i < c.count; i, s = i+1, (s+1)%c.cfg.ROBSize {
		c.rob[s].used = false
		if c.disp.has(s) {
			c.undispatch(s)
		}
	}
	c.count = n
	c.tail = slot
	c.Squashes++
	c.rebuildRename()
}

// FlushAll squashes the entire pipeline and redirects fetch to pc with
// architectural registers replaced by regs: the InvisiFence abort path.
// A Halt that retired speculatively is rolled back too: the core resumes.
// pc may lie below every slot the ring has reached, so the ring restarts at
// slot 0 (robSlots); no slot number survives the flush to observe that.
func (c *Core) FlushAll(regs [isa.NumRegs]memtypes.Word, pc int) {
	for i, s := 0, c.head; i < c.count; i, s = i+1, (s+1)%c.cfg.ROBSize {
		c.rob[s].used = false
	}
	c.count = 0
	c.head, c.tail = 0, 0
	c.archRegs = regs
	c.archRegs[isa.R0] = 0
	c.pc = pc
	c.fetchPC = pc
	c.fetchedHalt = false
	c.halted = false
	c.stallTil = c.now + c.cfg.RedirectPenalty
	c.Squashes++
	clear(c.disp)
	clear(c.ready)
	clear(c.pend)
	c.nDisp = 0
	c.rebuildRename()
}

// rebuildRename reconstructs the rename table and the load/store/exec
// queues from the surviving ROB entries after a squash, and drops the
// squashed consumers from the survivors' waiter lists: they are the
// youngest entries, so they head every list they are on.
func (c *Core) rebuildRename() {
	for i := range c.rename {
		c.rename[i] = -1
	}
	c.loadQ.reset()
	c.storeQ.reset()
	live := c.execQ[:0]
	for _, r := range c.execQ {
		if e := &c.rob[r.slot]; e.used && e.seq == r.seq {
			live = append(live, r)
		}
	}
	c.execQ = live
	for i, s := 0, c.head; i < c.count; i, s = i+1, (s+1)%c.cfg.ROBSize {
		e := &c.rob[s]
		l := e.waiters
		for l >= 0 && !c.rob[l>>2].used {
			l = c.rob[l>>2].wnext[l&3]
		}
		e.waiters = l
		if e.rd != isa.R0 {
			c.rename[e.rd] = int32(s)
		}
		if e.op.IsLoad() {
			c.loadQ.push(s)
		} else if e.op.IsStore() || e.op.IsAtomic() {
			c.storeQ.push(s)
		}
	}
}

// ------------------------------------------------------------- externals

// FillLoad delivers data for an outstanding load miss. Stale fills (for
// squashed entries) are ignored by tag mismatch.
func (c *Core) FillLoad(tag uint64, val memtypes.Word) {
	for _, s := range c.loadQ.slots() {
		e := &c.rob[s]
		if e.used && e.seq == tag && e.pendFill {
			e.pendFill = false
			e.value = val
			e.valueOK = true
			e.doneAt = c.now + 1
			c.queueExec(s)
			c.wakeWaiters(s)
			return
		}
	}
}

// SnoopBlock implements load-queue snooping (§2.1): an external
// invalidation or ownership transfer for a block replays the oldest
// executed-but-unretired load to that block (in-window-forwarded loads are
// exempt: they read their own in-flight store). Returns true if a replay
// occurred. Conventional implementations of all three models need this;
// InvisiFence-Continuous would not (§4.2), but keeping it on is
// conservative and covers execute-to-retire protection gaps (DESIGN.md).
func (c *Core) SnoopBlock(block memtypes.Addr) bool {
	for _, s := range c.loadQ.slots() {
		e := &c.rob[s]
		if e.used && e.valueOK && !e.fwdSQ && memtypes.BlockAddr(e.addr) == block {
			c.Replays++
			c.squashFrom(s)
			return true
		}
	}
	return false
}

// --------------------------------------------------------- event horizon

// NextEvent returns the earliest future cycle at which this core might make
// progress on its own — complete an execution, issue a newly-ready
// instruction, or fetch — or memtypes.NoEvent when the core is provably
// blocked until an external input (a load fill) arrives. Retirement at the
// ROB head is deliberately excluded: whether a retirement-ready head
// actually advances depends on the memory backend's consistency policy, so
// the node folds HeadState into its own horizon. The hint must never be
// late: if the core would change state at cycle T, the returned value must
// be <= T. Early hints only cost a wasted tick.
//
// The issue term reads the verdicts the issue walk reads (issueAt), so a
// load waiting on an older same-word atomic contributes no event. The
// method is read-only, so calling it cannot perturb the simulation.
func (c *Core) NextEvent() uint64 {
	t, _ := c.NextEventTerm()
	return t
}

// NextEventTerm is NextEvent together with the name of the term that set
// the hint: "fetch", "exec" or "issue" ("" at NoEvent). Diagnostics only.
func (c *Core) NextEventTerm() (uint64, string) {
	if c.halted {
		return memtypes.NoEvent, ""
	}
	next, term := uint64(memtypes.NoEvent), ""
	// Fetch: possible whenever there is ROB room and a valid fetch PC.
	// (A wrong-path PC past the program end fetches nothing; SkipCycles
	// replicates its per-cycle counter.)
	if !c.fetchedHalt && c.count < c.cfg.ROBSize && c.fetchPC >= 0 && c.fetchPC < len(c.prog.Instrs) {
		next, term = max(c.now+1, c.stallTil), "fetch"
	}
	// Execution completions promote entries to sDone; the earliest is at
	// the front of execQ.
	if len(c.execQ) > 0 {
		if t := max(c.now+1, c.execQ[0].at); t < next {
			next, term = t, "exec"
		}
	}
	// Dispatched entries become issueable when their verdicts come due
	// (only the issue window can issue, so later entries cannot generate an
	// event before the window moves).
	if t := c.issueAt(); t < next {
		next, term = t, "issue"
	}
	return next, term
}

// issueAt is NextEvent's issue term: the next cycle if the issue window
// holds a ready entry, else the earliest wake of a pending one in it.
func (c *Core) issueAt() uint64 {
	if c.nDisp == 0 {
		return memtypes.NoEvent
	}
	end := c.windowEnd()
	if s := c.nextIn(c.ready, 0); s >= 0 && c.slotAge(s) < end {
		return c.now + 1
	}
	at := uint64(memtypes.NoEvent)
	for a := 0; ; a++ {
		s := c.nextIn(c.pend, a)
		if s < 0 {
			break
		}
		if a = c.slotAge(s); a >= end {
			break
		}
		at = min(at, c.rob[s].wakeAt)
	}
	return max(c.now+1, at)
}

// IssueProgress reports the dispatched (not yet issued) and executing
// queue lengths: the core's issue and completion progress, which the ROB
// occupancy and retirement counters do not show. Diagnostics only.
func (c *Core) IssueProgress() (dispatched, executing int) {
	return c.nDisp, len(c.execQ)
}

// HeadState is a read-only snapshot of the ROB head, exposed so the node
// can fold retirement-policy knowledge (which lives in the backend) into
// its idle-skip horizon. Its readiness is the head-readiness rule retire()
// gates on, not a model of it.
type HeadState struct {
	Valid  bool // ROB non-empty and core running
	Op     isa.Op
	Addr   memtypes.Addr // meaningful when AddrOK (loads/stores/atomics)
	AddrOK bool
	// Ready reports that the retirement policy will be invoked for the head
	// next cycle. ReadyAt is the earliest cycle that could happen
	// (memtypes.NoEvent: only after an external event such as a fill).
	Ready   bool
	ReadyAt uint64
	// OpA/OpB are a ready atomic's data operands (the compare value and, for
	// CAS, the swap value), resolved read-only by the operand rule: the
	// node needs the actual values — a CAS whose compare fails retires
	// read-only — to classify a buffer-blocked speculative atomic as a
	// skippable wait. OpsOK reports that both can bind already this cycle.
	OpA, OpB memtypes.Word
	OpsOK    bool
}

// HeadState returns the retirement snapshot of the ROB head, read off the
// head-readiness rule retire() gates on.
func (c *Core) HeadState() HeadState {
	if c.halted || c.count == 0 {
		return HeadState{}
	}
	e := &c.rob[c.head]
	at := c.headReadyAt(e)
	hs := HeadState{Valid: true, Op: e.op, Addr: e.addr, AddrOK: e.addrOK, ReadyAt: max(c.now+1, at)}
	hs.Ready = hs.ReadyAt == c.now+1
	if hs.Ready && e.op.IsAtomic() {
		hs.OpA, hs.OpB = c.atomicData(e)
		hs.OpsOK = at <= c.now
	}
	return hs
}

// SkipCycles replicates the per-cycle effects of k externally-idle cycles
// the simulator fast-forwarded past (cycles c.now+1 .. c.now+k). The core's
// state is frozen during a skip by construction; the only per-cycle effect
// is the wrong-path fetch counter, which increments while fetch is unstalled
// with a PC past the program end.
func (c *Core) SkipCycles(k uint64) {
	if c.halted || c.fetchedHalt || c.count >= c.cfg.ROBSize {
		return
	}
	if c.fetchPC >= 0 && c.fetchPC < len(c.prog.Instrs) {
		return // would have fetched; the scheduler never skips this state
	}
	first := max(c.now+1, c.stallTil)
	if last := c.now + k; last >= first {
		c.FetchedWrongPath += last - first + 1
	}
}

// ------------------------------------------------------------ predictor

func (c *Core) predIndex(pc int) uint32 { return uint32(pc) & c.predMask }

func (c *Core) predictTaken(pc int) bool { return c.pred[c.predIndex(pc)] >= 2 }

func (c *Core) updatePredictor(pc int, taken bool) {
	i := c.predIndex(pc)
	v := c.pred[i]
	if taken {
		if v < 3 {
			c.pred[i] = v + 1
		}
	} else if v > 0 {
		c.pred[i] = v - 1
	}
}

// ------------------------------------------------------------------- ALU

func evalALU(in *isa.Instr, a, b memtypes.Word) memtypes.Word {
	switch in.Op {
	case isa.MovI:
		return memtypes.Word(in.Imm)
	case isa.Add:
		return a + b
	case isa.AddI:
		return a + memtypes.Word(in.Imm)
	case isa.Sub:
		return a - b
	case isa.Mul:
		return a * b
	case isa.And:
		return a & b
	case isa.Or:
		return a | b
	case isa.Xor:
		return a ^ b
	case isa.ShlI:
		return a << uint(in.Imm&63)
	case isa.ShrI:
		return a >> uint(in.Imm&63)
	case isa.SltU:
		return wordOf(a < b)
	case isa.Seq:
		return wordOf(a == b)
	case isa.Nop, isa.Delay:
		return 0
	}
	panic(fmt.Sprintf("cpu: evalALU on %v", in.Op))
}

// wordOf is 1 for true, 0 for false.
func wordOf(b bool) memtypes.Word {
	if b {
		return 1
	}
	return 0
}

// AtomicApply computes an atomic op's new memory value. doWrite is false
// for a failed compare-and-swap (treated as a read, per §3.2's load+store
// decomposition: no written state is created).
func AtomicApply(op isa.Op, old, opA, opB memtypes.Word) (memtypes.Word, bool) {
	switch op {
	case isa.Cas:
		if old == opA {
			return opB, true
		}
		return old, false
	case isa.Fadd:
		return old + opA, true
	case isa.Swap:
		return opA, true
	}
	panic(fmt.Sprintf("cpu: AtomicApply on %v", op))
}
