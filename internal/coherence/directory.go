package coherence

import (
	"fmt"

	"invisifence/internal/memctrl"
	"invisifence/internal/memtypes"
)

// dirState is the stable directory state of a block.
type dirState uint8

const (
	dirInvalid dirState = iota // no cached copies
	dirShared                  // one or more read-only copies
	dirOwned                   // exactly one Exclusive/Modified copy
)

func (s dirState) String() string {
	switch s {
	case dirInvalid:
		return "I"
	case dirShared:
		return "S"
	case dirOwned:
		return "O"
	}
	return "?"
}

// txnPhase is the progress state of an in-flight directory transaction.
type txnPhase uint8

const (
	phaseWaitMem   txnPhase = iota // waiting for the local memory access
	phaseWaitAcks                  // waiting for InvAcks (and possibly memory)
	phaseWaitOwner                 // waiting for OwnerWBS/XferAck from the owner
)

// txn is one in-flight transaction at the directory. It is embedded by value
// in its entry (txnBox), so starting a transaction allocates nothing.
type txn struct {
	kind     MsgKind // GetS, GetX, or Upgrade (after fallback rewriting)
	req      memtypes.NodeID
	phase    txnPhase
	memReady uint64 // cycle the memory read completes (phaseWaitMem/WaitAcks)
	needMem  bool
	needAcks int
	gotAcks  int
	grantX   bool // Upgrade fast path: grant permission without data
}

// queuedReq is one waiting request in an entry's queue. Held by value: the
// wait queue's backing array survives entry reuse, so steady-state queueing
// allocates nothing.
type queuedReq struct {
	src memtypes.NodeID
	msg Msg
}

// entry is the directory's record for one block. Entries live in
// chunk-allocated arenas (stable pointers) and recycle through an intrusive
// free list: a block whose record returns to the zero coherence state
// (dirInvalid, no transaction, empty queue) releases its entry, and the next
// request for any block reuses it — with the wait queue's capacity kept, so
// acquire/release churn on hot blocks settles at zero heap allocations
// (TestDirectoryChurnAllocFree).
type entry struct {
	state    dirState
	owner    memtypes.NodeID
	sharers  uint64 // bitmask over nodes
	cur      *txn   // nil when idle; points at txnBox while a txn is live
	txnBox   txn
	waitq    []queuedReq
	inActive bool
	addr     memtypes.Addr
	freeNext *entry // intrusive free-list link (meaningful only when released)
}

// entryChunkSize is the arena's largest growth quantum (entryFor doubles
// up to it from 2). Chunks are never freed; the arena's high-water mark is
// the maximum number of simultaneously live blocks, which block-address
// locality keeps far below the map-per-block footprint the previous
// implementation grew without bound.
const entryChunkSize = 64

// dirTable is an open-addressed (linear-probe, backward-shift-delete) index
// from block address to entry. It replaces the built-in map on the
// per-message path: no per-insert allocation, and deletion (entry release)
// leaves no tombstones to accumulate.
type dirTable struct {
	keys []memtypes.Addr
	vals []*entry
	n    int
}

func (t *dirTable) slot(a memtypes.Addr) uint64 {
	// Fibonacci hashing of the block number spreads the sequential block
	// addresses workloads touch across the table.
	return (uint64(a>>memtypes.BlockShift) * 0x9E3779B97F4A7C15) >> 32 & uint64(len(t.vals)-1)
}

func (t *dirTable) get(a memtypes.Addr) *entry {
	if len(t.vals) == 0 {
		return nil
	}
	mask := uint64(len(t.vals) - 1)
	for i := t.slot(a); ; i = (i + 1) & mask {
		if t.vals[i] == nil {
			return nil
		}
		if t.keys[i] == a {
			return t.vals[i]
		}
	}
}

func (t *dirTable) put(a memtypes.Addr, e *entry) {
	if t.n*4 >= len(t.vals)*3 {
		t.grow()
	}
	mask := uint64(len(t.vals) - 1)
	for i := t.slot(a); ; i = (i + 1) & mask {
		if t.vals[i] == nil {
			t.keys[i], t.vals[i] = a, e
			t.n++
			return
		}
		if t.keys[i] == a {
			panic(fmt.Sprintf("coherence: duplicate directory entry %#x", uint64(a)))
		}
	}
}

func (t *dirTable) grow() {
	size := 8 // a litmus run's home slice indexes a handful of blocks
	if len(t.vals) > 0 {
		size = len(t.vals) * 2
	}
	keys, vals := t.keys, t.vals
	t.keys = make([]memtypes.Addr, size)
	t.vals = make([]*entry, size)
	t.n = 0
	for i := range vals {
		if vals[i] != nil {
			t.put(keys[i], vals[i])
		}
	}
}

// del removes a's slot with the standard backward-shift so probe chains stay
// intact without tombstones.
func (t *dirTable) del(a memtypes.Addr) {
	mask := uint64(len(t.vals) - 1)
	i := t.slot(a)
	for {
		if t.vals[i] == nil {
			return // not present
		}
		if t.keys[i] == a {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		t.vals[i] = nil
		for {
			j = (j + 1) & mask
			if t.vals[j] == nil {
				t.n--
				return
			}
			h := t.slot(t.keys[j])
			// The element at j may fill slot i unless its home slot lies
			// cyclically in (i, j] — then it is already as close to home as
			// the probe chain allows.
			inIJ := false
			if i <= j {
				inIJ = i < h && h <= j
			} else {
				inIJ = i < h || h <= j
			}
			if !inIJ {
				break
			}
		}
		t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
		i = j
	}
}

// Directory is the home directory slice at one node. It owns the node's
// memory controller and communicates with cache controllers through a Port
// (the torus, or with several event-loop clusters the node's network shard).
//
// All pooled state — the entry arena, free list, and table — is private to
// one Directory, and each Directory is driven only by its owning node's
// goroutine between barriers, so cluster goroutines share nothing through
// the pools (DESIGN.md §9; enforced by the sim-race CI job).
type Directory struct {
	id    memtypes.NodeID
	nodes int
	mem   *memctrl.Memory
	port  Port

	table  dirTable
	chunks [][]entry // arena: stable entry storage
	free   *entry    // intrusive free list of released entries
	active []*entry  // entries with an in-flight transaction, insertion order
	now    uint64

	// Stats.
	Transactions uint64
	Forwards     uint64
	Invals       uint64
	Queued       uint64
}

// NewDirectory creates the directory slice for node id.
func NewDirectory(id memtypes.NodeID, nodes int, mem *memctrl.Memory, port Port) *Directory {
	return new(Directory).Init(id, nodes, mem, port)
}

// Init empties d as node id's slice and returns it (DESIGN.md §2): a rebuilt
// directory frees every arena entry and clears its table at its grown size.
func (d *Directory) Init(id memtypes.NodeID, nodes int, mem *memctrl.Memory, port Port) *Directory {
	old := *d
	*d = Directory{
		id:     id,
		nodes:  nodes,
		mem:    mem,
		port:   port,
		table:  dirTable{keys: old.table.keys, vals: old.table.vals},
		chunks: old.chunks,
		active: old.active[:0],
	}
	clear(d.table.vals) // an empty slot is a nil value; keys are overwritten
	for _, chunk := range d.chunks {
		for i := range chunk {
			chunk[i].freeNext = d.free
			d.free = &chunk[i]
		}
	}
	return d
}

// entryFor returns the live entry for a block, acquiring a pooled one (in
// the zero coherence state) if the block has none.
func (d *Directory) entryFor(a memtypes.Addr) *entry {
	if e := d.table.get(a); e != nil {
		return e
	}
	e := d.free
	if e == nil {
		// The first chunks hold 2, 4, 8, … entries: a directory that only
		// ever sees a few blocks (a litmus run) allocates a few entries.
		chunk := make([]entry, min(entryChunkSize, 2<<min(len(d.chunks), 5)))
		d.chunks = append(d.chunks, chunk)
		for i := range chunk {
			chunk[i].freeNext = d.free
			d.free = &chunk[i]
		}
		e = d.free
	}
	d.free = e.freeNext
	wq := e.waitq[:0] // keep the queue's capacity across reuse
	*e = entry{addr: a, waitq: wq}
	d.table.put(a, e)
	return e
}

// releaseIfIdle returns an entry to the free list once it again describes
// the zero coherence state — exactly what entryFor would recreate — so
// keeping it indexed would be pure memory growth. Entries on the active list
// are left for Tick's prune to release (the list holds the pointer).
func (d *Directory) releaseIfIdle(e *entry) {
	if e.cur != nil || e.inActive || len(e.waitq) != 0 || e.state != dirInvalid {
		return
	}
	d.table.del(e.addr)
	e.freeNext = d.free
	d.free = e
}

func (d *Directory) send(dst memtypes.NodeID, m Msg) {
	if TraceOn() {
		Trace(d.now, fmt.Sprintf("dir%d->%d", d.id, dst), m, "")
	}
	d.port.Send(d.id, dst, m)
}

// Handle processes one protocol request arriving at this directory. m is
// read during the call only; a request that has to wait is copied into
// its entry's queue.
func (d *Directory) Handle(now uint64, src memtypes.NodeID, m *Msg) {
	d.now = now
	if TraceOn() {
		Trace(now, fmt.Sprintf("dir%d<-%d", d.id, src), *m, d.StateOf(m.Addr))
	}
	a := m.Addr
	e := d.entryFor(a)
	switch m.Kind {
	case GetS, GetX, Upgrade:
		if e.cur != nil {
			e.waitq = append(e.waitq, queuedReq{src, *m})
			d.Queued++
			return
		}
		d.start(a, e, src, m.Kind)
	case PutX:
		d.handlePutX(a, e, src, m)
	case InvAck:
		d.handleInvAck(a, e, src)
	case OwnerWBS:
		d.handleOwnerWBS(a, e, src, m)
	case XferAck:
		d.handleXferAck(a, e, src)
	default:
		panic(fmt.Sprintf("directory %d: unexpected message %v from %d", d.id, *m, src))
	}
	d.releaseIfIdle(e)
}

// start begins a new transaction of the given request kind for a block
// known to be idle.
func (d *Directory) start(a memtypes.Addr, e *entry, src memtypes.NodeID, kind MsgKind) {
	d.Transactions++
	e.txnBox = txn{kind: kind, req: src}
	t := &e.txnBox
	e.cur = t
	if !e.inActive {
		e.inActive = true
		d.active = append(d.active, e)
	}

	// An Upgrade whose requestor lost its copy (a queued-behind GetX
	// invalidated it before we got here) is handled as a full GetX.
	if t.kind == Upgrade {
		if e.state == dirShared && e.sharers&(1<<uint(src)) != 0 {
			t.grantX = true
		} else {
			t.kind = GetX
		}
	}

	switch t.kind {
	case GetS:
		switch e.state {
		case dirInvalid, dirShared:
			t.needMem = true
			t.memReady = d.mem.AccessDone(d.now, a)
			t.phase = phaseWaitMem
		case dirOwned:
			t.phase = phaseWaitOwner
			d.Forwards++
			d.send(e.owner, Msg{Kind: FwdGetS, Addr: a, Req: src})
		}
	case GetX, Upgrade:
		switch e.state {
		case dirInvalid:
			t.needMem = true
			t.memReady = d.mem.AccessDone(d.now, a)
			t.phase = phaseWaitMem
		case dirShared:
			t.phase = phaseWaitAcks
			if !t.grantX {
				t.needMem = true
				t.memReady = d.mem.AccessDone(d.now, a)
			}
			for n := 0; n < d.nodes; n++ {
				bit := uint64(1) << uint(n)
				if e.sharers&bit == 0 || memtypes.NodeID(n) == src {
					continue
				}
				t.needAcks++
				d.Invals++
				d.send(memtypes.NodeID(n), Msg{Kind: Inv, Addr: a})
			}
			if t.needAcks == 0 && !t.needMem {
				d.finish(a, e)
				return
			}
			if t.needAcks == 0 {
				t.phase = phaseWaitMem
			}
		case dirOwned:
			t.phase = phaseWaitOwner
			d.Forwards++
			d.send(e.owner, Msg{Kind: FwdGetX, Addr: a, Req: src})
		}
	}
	d.tickTxn(a, e)
}

// Tick advances any transactions whose memory accesses have completed.
// Iteration is over an insertion-ordered slice to keep the simulator
// deterministic.
func (d *Directory) Tick(now uint64) {
	d.now = now
	if len(d.active) == 0 {
		return
	}
	// Index-based so that entries appended by complete()->start() during the
	// walk are still visited this cycle.
	for i := 0; i < len(d.active); i++ {
		e := d.active[i]
		if e.cur != nil {
			d.tickTxn(e.addr, e)
		}
	}
	live := d.active[:0]
	for _, e := range d.active {
		if e.cur != nil {
			live = append(live, e)
		} else {
			e.inActive = false
			d.releaseIfIdle(e)
		}
	}
	for i := len(live); i < len(d.active); i++ {
		d.active[i] = nil
	}
	d.active = live
}

// NextEvent returns the earliest future cycle at which an in-flight
// transaction advances on its own: a memory access completing. This is also
// the memory controller's contribution to the idle-skip horizon, because
// access completion times are scheduled into transactions at request time
// (the controller has no horizon of its own). Ack- and owner-driven
// transitions are external (message) events and contribute nothing here.
func (d *Directory) NextEvent(now uint64) uint64 {
	next := uint64(memtypes.NoEvent)
	for _, e := range d.active {
		t := e.cur
		if t == nil {
			continue
		}
		if t.phase == phaseWaitMem {
			next = min(next, max(now+1, t.memReady))
		}
	}
	return next
}

// tickTxn completes a transaction whose remaining work (memory latency) is
// done. Transitions driven by messages are handled in the message handlers.
func (d *Directory) tickTxn(a memtypes.Addr, e *entry) {
	t := e.cur
	if t == nil {
		return
	}
	switch t.phase {
	case phaseWaitMem:
		if t.needMem && d.now < t.memReady {
			return
		}
		d.finish(a, e)
	case phaseWaitAcks:
		if t.gotAcks < t.needAcks {
			return
		}
		if t.needMem && d.now < t.memReady {
			t.phase = phaseWaitMem
			return
		}
		d.finish(a, e)
	case phaseWaitOwner:
		// Completed by OwnerWBS/XferAck.
	}
}

// finish sends the grant for the current transaction and unblocks the queue.
func (d *Directory) finish(a memtypes.Addr, e *entry) {
	t := e.cur
	switch t.kind {
	case GetS:
		data := d.mem.ReadBlock(a)
		if e.state == dirInvalid {
			e.state = dirOwned
			e.owner = t.req
			e.sharers = 0
			d.send(t.req, Msg{Kind: DataE, Addr: a, Data: data, HasData: true})
		} else {
			e.state = dirShared
			e.sharers |= 1 << uint(t.req)
			d.send(t.req, Msg{Kind: DataS, Addr: a, Data: data, HasData: true})
		}
	case GetX, Upgrade:
		if t.grantX {
			d.send(t.req, Msg{Kind: GrantX, Addr: a})
		} else {
			data := d.mem.ReadBlock(a)
			d.send(t.req, Msg{Kind: DataM, Addr: a, Data: data, HasData: true})
		}
		e.state = dirOwned
		e.owner = t.req
		e.sharers = 0
	}
	d.complete(a, e)
}

// complete clears the in-flight transaction and drains the wait queue until
// a queued request blocks the entry again (queued PutX messages complete
// immediately and keep draining).
func (d *Directory) complete(a memtypes.Addr, e *entry) {
	e.cur = nil
	for len(e.waitq) > 0 && e.cur == nil {
		q := e.waitq[0]
		copy(e.waitq, e.waitq[1:])
		e.waitq = e.waitq[:len(e.waitq)-1]
		if q.msg.Kind == PutX {
			d.handlePutX(a, e, q.src, &q.msg)
		} else {
			d.start(a, e, q.src, q.msg.Kind)
		}
	}
}

func (d *Directory) handlePutX(a memtypes.Addr, e *entry, src memtypes.NodeID, m *Msg) {
	if e.cur != nil {
		// A transaction is in flight; the Fwd to the (evicting) owner is
		// served from its writeback buffer, and by the time this PutX is
		// processed, ownership has moved on. Queue it for ordering.
		e.waitq = append(e.waitq, queuedReq{src, *m})
		d.Queued++
		return
	}
	if e.state == dirOwned && e.owner == src {
		if m.Dirty {
			d.mem.WriteBlock(a, m.Data)
		}
		e.state = dirInvalid
		e.owner = 0
		e.sharers = 0
	}
	// A stale PutX (ownership already transferred) is acknowledged without
	// touching memory: the current owner's data supersedes it.
	d.send(src, Msg{Kind: WBAck, Addr: a})
}

func (d *Directory) handleInvAck(a memtypes.Addr, e *entry, src memtypes.NodeID) {
	t := e.cur
	if t == nil || t.phase != phaseWaitAcks {
		panic(fmt.Sprintf("directory %d: unexpected InvAck@%#x from %d", d.id, uint64(a), src))
	}
	t.gotAcks++
	d.tickTxn(a, e)
}

func (d *Directory) handleOwnerWBS(a memtypes.Addr, e *entry, src memtypes.NodeID, m *Msg) {
	t := e.cur
	if t == nil || t.phase != phaseWaitOwner || t.kind != GetS {
		panic(fmt.Sprintf("directory %d: unexpected OwnerWBS@%#x from %d", d.id, uint64(a), src))
	}
	// The owner has sent FwdDataS directly to the requestor; record the data
	// at memory and leave both nodes as sharers.
	d.mem.WriteBlock(a, m.Data)
	e.state = dirShared
	e.sharers = (1 << uint(e.owner)) | (1 << uint(t.req))
	d.complete(a, e)
}

func (d *Directory) handleXferAck(a memtypes.Addr, e *entry, src memtypes.NodeID) {
	t := e.cur
	if t == nil || t.phase != phaseWaitOwner {
		panic(fmt.Sprintf("directory %d: unexpected XferAck@%#x from %d", d.id, uint64(a), src))
	}
	e.state = dirOwned
	e.owner = t.req
	e.sharers = 0
	d.complete(a, e)
}

// DebugString dumps in-flight transaction state for diagnostics. Iteration
// order is the active list's insertion order — a deterministic property of
// the simulated history, unchanged by entry pooling (the churn test pins
// it).
func (d *Directory) DebugString() string {
	out := ""
	for _, e := range d.active {
		if e.cur == nil {
			continue
		}
		t := e.cur
		out += fmt.Sprintf("  txn %#x kind=%v req=%d phase=%d acks=%d/%d memReady=%d state=%s owner=%d sharers=%b waitq=%d\n",
			uint64(e.addr), t.kind, t.req, t.phase, t.gotAcks, t.needAcks, t.memReady,
			e.state, e.owner, e.sharers, len(e.waitq))
	}
	return out
}

// PendingTransactions reports in-flight transaction count (for quiescence
// checks in tests).
func (d *Directory) PendingTransactions() int {
	n := 0
	for _, e := range d.active {
		if e.cur != nil {
			n++
		}
	}
	return n
}

// StateOf returns a debug string for a block's directory state.
func (d *Directory) StateOf(a memtypes.Addr) string {
	e := d.table.get(memtypes.BlockAddr(a))
	if e == nil {
		return "I"
	}
	s := e.state.String()
	if e.cur != nil {
		s += "*"
	}
	return s
}

// Owner returns the current owner if the block is in the Owned state.
func (d *Directory) Owner(a memtypes.Addr) (memtypes.NodeID, bool) {
	e := d.table.get(memtypes.BlockAddr(a))
	if e == nil || e.state != dirOwned {
		return 0, false
	}
	return e.owner, true
}
