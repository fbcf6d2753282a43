// Package network models the 4x4 2D torus interconnect from Figure 6 of the
// paper. It provides point-to-point message delivery with per-hop latency,
// FIFO ordering between each (source, destination) pair, an optional seeded
// jitter used by the litmus-test harness to explore interleavings, and —
// when Config.LinkBandwidth is non-zero — a per-link contention model:
// every node's router has four directed injection links with finite
// bandwidth (a configurable number of cycles per flit), messages queue at a
// busy link in send order, and the resulting queuing delay adds to the
// delivery latency (DESIGN.md §10). With LinkBandwidth zero (the default)
// the torus is latency-only and bit-exact with the pre-contention
// simulator: Figure 6's 128 GB/s bisection bandwidth is far from saturated
// by 16 cores at these miss rates (DESIGN.md §5), so contention is a
// fidelity knob for congestion studies, not part of the calibrated machine.
//
// The implementation is allocation-free on the steady-state path: messages
// are values (no per-send boxing) carrying the coherence protocol's wire
// format (coherence.Msg) inline, the in-flight set is a hand-rolled binary
// heap of values, per-destination inboxes are reusable ring buffers, and
// the per-link occupancy windows used for queue-depth accounting are
// reusable rings as well.
package network

import (
	"fmt"
	"slices"

	"invisifence/internal/coherence"
	"invisifence/internal/memtypes"
	"invisifence/internal/stats"
)

// NodeID identifies a node (core + caches + directory slice) in the system.
// The defined type lives in memtypes (below the wire format); this alias
// keeps the network's established vocabulary.
type NodeID = memtypes.NodeID

// Message is an in-flight interconnect message. The payload is the coherence
// protocol's wire format, embedded by value: the network carries exactly one
// message type, so there is nothing to box — sending allocates nothing, and
// the heap/inbox/outbox structures hold messages inline (DESIGN.md §9).
type Message struct {
	Src, Dst NodeID
	Payload  coherence.Msg

	arrive uint64 // delivery cycle
	seq    uint64 // tie-break for deterministic ordering (see ordering note)
	sent   uint64 // send cycle (shard mode ordering component)
}

// Ordering note. The whole-torus network breaks same-cycle delivery ties
// with a single global send counter (seq), so messages delivered in the
// same cycle to the same inbox pop in global send order. In shard mode no global
// counter exists — sends happen concurrently on different shards — so seq is
// a per-source counter instead and the heap orders by the composite key
// (arrive, sent, src, seq). The two orders are identical: every runner
// ticks nodes in ascending NodeID order within a cycle, and every send
// happens inside some node's tick, so global send order is exactly
// lexicographic (send cycle, source NodeID, per-source send index). The
// runner bit-exactness tests (TestParallelBitExact) enforce this
// equivalence.

// Config describes the torus geometry and timing.
type Config struct {
	Width, Height int    // torus dimensions; Width*Height == number of nodes
	HopLatency    uint64 // cycles per hop (Figure 6: 25 ns at 4 GHz = 100)
	LocalLatency  uint64 // latency for a node messaging itself (its own home slice)
	Jitter        uint64 // max extra random cycles per message (0 = deterministic)
	Seed          int64  // jitter RNG seed

	// LinkBandwidth enables the per-link contention model: each of a
	// node's four directed injection links transmits one flit per
	// LinkBandwidth cycles, a message occupies its link for flits x
	// LinkBandwidth cycles, and messages finding the link busy queue in
	// send order, the wait adding to their delivery latency (DESIGN.md
	// §10). Control messages are one flit; data-bearing messages add
	// DataFlits for the 64-byte block. 0 (the default) disables the model
	// entirely — latency-only delivery, bit-exact with the pre-contention
	// simulator and free of contention bookkeeping.
	LinkBandwidth uint64
}

// Flit sizing for the contention model: a 16-byte link width makes a
// 64-byte cache block four flits, plus one header/command flit for every
// message (coherence.Msg addressing and kind).
const (
	headerFlits = 1
	// DataFlits is the extra flits a data-bearing message occupies a link
	// for (memtypes.BlockBytes / 16-byte flit width).
	DataFlits = memtypes.BlockBytes / 16
)

// FlitsOf returns the number of flits m occupies on a link.
func FlitsOf(m coherence.Msg) uint64 {
	if m.HasData {
		return headerFlits + DataFlits
	}
	return headerFlits
}

// DefaultConfig returns the Figure 6 interconnect: a 4x4 torus with
// 25 ns (100-cycle) hop latency.
func DefaultConfig() Config {
	return Config{Width: 4, Height: 4, HopLatency: 100, LocalLatency: 1}
}

// inbox is one destination's delivered-message FIFO: a ring that reuses its
// backing storage instead of shifting on every Recv. pop hands out pointers
// into it and only push moves or overwrites entries, so a popped message
// stays in place until the next push (Network.Tick).
type inbox struct {
	q    []Message
	head int
}

func (b *inbox) len() int { return len(b.q) - b.head }

func (b *inbox) push(m *Message) {
	switch {
	case b.head == len(b.q):
		b.q = b.q[:0]
		b.head = 0
	case b.head >= 64 && b.head*2 >= len(b.q):
		// Compact once the dead prefix dominates, so the backing array is
		// bounded by the backlog (amortized O(1): each element moves at
		// most once per 64 pops).
		n := copy(b.q, b.q[b.head:])
		b.q = b.q[:n]
		b.head = 0
	}
	b.q = append(b.q, *m)
}

// pop returns the oldest message, or nil. Popped slots are left as-is:
// Message is pointer-free, so there is nothing for the GC to release.
func (b *inbox) pop() *Message {
	if b.head == len(b.q) {
		return nil
	}
	b.head++
	return &b.q[b.head-1]
}

// Network is the torus — or, in shard mode, one cluster's partition of it.
//
// A plain Network (New) owns every node and is not safe for concurrent use;
// the one-cluster event loop and the lock-step loop drive it from a single
// goroutine.
//
// A shard (Init with an owned set) owns a subset of the nodes: it carries
// the in-flight heap and inboxes for messages destined to its own nodes, and
// the per-pair FIFO state for messages sent by its own nodes. Sends to
// foreign nodes are timestamped locally (arrival cycle, FIFO bump,
// per-source sequence) and parked in an outbox; the event loop's
// coordinator moves them into the owning shard with Inject at an epoch
// barrier, before any cycle at which they could arrive (see internal/sim's
// event loop and DESIGN.md §7). Distinct shards never share mutable state,
// so each may be driven by its own goroutine between barriers.
type Network struct {
	cfg     Config
	now     uint64
	nextSeq uint64
	flight  msgHeap
	inboxes []inbox
	jitter  jitterDraws // cursor into the shared jitter draws (draws.go)

	// Shard mode. owned is nil for a whole-torus network; otherwise
	// owned[id] reports whether this shard simulates node id. srcSeq
	// replaces the global nextSeq with per-source counters (see the
	// ordering note on Message), and sharded selects the composite heap
	// key.
	sharded   bool
	owned     []bool
	srcSeq    []uint64
	outbox    []Message
	outboxAlt []Message // DrainOutbox's swap buffer (allocation-free epochs)

	// lastArrive enforces FIFO ordering per (src,dst) pair: a later send may
	// not arrive before an earlier one even under jitter. Indexed
	// src*nodes+dst (the pair space is small and dense). In shard mode only
	// rows with an owned src are touched: a pair's FIFO state lives with the
	// sender's shard, and every node is owned by exactly one shard.
	lastArrive []uint64

	// Link contention state (nil/empty when Config.LinkBandwidth == 0).
	// Indexed src*numLinks+direction: every injection link belongs to
	// exactly one source node, so in shard mode only owned sources' links
	// are ever touched — contention state lives with the sender's shard,
	// exactly like the per-pair FIFO state (DESIGN.md §10). linkFreeAt is
	// the first cycle the link is idle again (reservation model);
	// linkWindows holds the end cycles of the link's outstanding occupancy
	// windows, drained lazily at each send, for queue-depth accounting.
	linkFreeAt  []uint64
	linkWindows []endRing

	// Counters for bandwidth accounting and tests. In shard mode Sent and
	// TotalHops count sends by this shard's nodes and Delivered counts
	// deliveries into this shard's inboxes; summing over shards matches the
	// whole-torus counters exactly. Contention aggregates the link-occupancy
	// telemetry the same way: per-link state is per-source, so summing the
	// shard instances (stats.NetStats.Merge) reproduces the whole-torus
	// counters.
	Sent       uint64
	Delivered  uint64
	TotalHops  uint64
	Contention stats.NetStats
}

// New creates a network with the given configuration.
func New(cfg Config) *Network { return new(Network).Init(cfg, nil) }

// Init empties n for cfg — the whole torus when owned is nil, else the
// shard of the owned nodes — keeping its buffers, and returns it (DESIGN.md
// §2). Shards reject jitter: its RNG is consumed in global send order,
// which only a whole-torus network reproduces.
func (n *Network) Init(cfg Config, owned []bool) *Network {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic(fmt.Sprintf("network: bad dimensions %dx%d", cfg.Width, cfg.Height))
	}
	if cfg.HopLatency == 0 {
		cfg.HopLatency = 1
	}
	if cfg.LocalLatency == 0 {
		cfg.LocalLatency = 1
	}
	nodes := cfg.Width * cfg.Height
	if owned != nil {
		if cfg.Jitter > 0 {
			panic("network: shards do not support jitter (global RNG order)")
		}
		if len(owned) != nodes {
			panic(fmt.Sprintf("network: owned set covers %d of %d nodes", len(owned), nodes))
		}
	}
	old := *n
	*n = Network{
		cfg:        cfg,
		flight:     old.flight[:0],
		inboxes:    slices.Grow(old.inboxes[:0], nodes)[:nodes],
		outbox:     old.outbox[:0],
		outboxAlt:  old.outboxAlt[:0],
		lastArrive: memtypes.Resize(old.lastArrive, nodes*nodes),
		jitter:     jitterDraws{tail: old.jitter.tail},
	}
	for i := range n.inboxes {
		n.inboxes[i] = inbox{q: n.inboxes[i].q[:0]}
	}
	if owned != nil {
		n.sharded = true
		n.owned = append(old.owned[:0], owned...)
		n.srcSeq = memtypes.Resize(old.srcSeq, nodes)
	}
	if cfg.LinkBandwidth > 0 {
		n.linkFreeAt = memtypes.Resize(old.linkFreeAt, nodes*numLinks)
		n.linkWindows = slices.Grow(old.linkWindows[:0], nodes*numLinks)[:nodes*numLinks]
		for i := range n.linkWindows {
			n.linkWindows[i] = endRing{q: n.linkWindows[i].q[:0]}
		}
	}
	if cfg.Jitter > 0 {
		n.jitter.seed, n.jitter.bound = cfg.Seed, int64(cfg.Jitter)+1
	}
	return n
}

// Owns reports whether this network simulates node id (always true for a
// whole-torus network).
func (n *Network) Owns(id NodeID) bool { return n.owned == nil || n.owned[id] }

// DrainOutbox returns and clears the cross-shard sends accumulated since the
// last drain. Only the parallel scheduler calls this, at an epoch barrier,
// with every shard goroutine parked. The returned slice is valid until the
// drain after next: the outbox and a spare swap backing arrays, so steady-
// state barrier exchange allocates nothing. The scheduler finishes injecting
// every drained message before any shard resumes sending, which is exactly
// the reuse window.
func (n *Network) DrainOutbox() []Message {
	out := n.outbox
	n.outbox = n.outboxAlt[:0]
	n.outboxAlt = out
	return out
}

// Inject accepts cross-shard messages (drained from peer shards' outboxes)
// whose destinations this shard owns. Arrival cycles and ordering keys were
// fixed by the sender's shard; insertion order is irrelevant because the
// composite heap key is a total order. Only the parallel scheduler calls
// this, at an epoch barrier.
func (n *Network) Inject(ms []Message) {
	for _, m := range ms {
		if !n.Owns(m.Dst) {
			panic(fmt.Sprintf("network: injected message for foreign node %d", m.Dst))
		}
		n.flight.push(m, n.sharded)
	}
}

// Nodes returns the number of nodes in the torus.
func (n *Network) Nodes() int { return n.cfg.Width * n.cfg.Height }

// Hops returns the dimension-order routed hop count between two nodes on the
// torus (minimum of the two directions in each dimension).
func (n *Network) Hops(a, b NodeID) int {
	ax, ay := int(a)%n.cfg.Width, int(a)/n.cfg.Width
	bx, by := int(b)%n.cfg.Width, int(b)/n.cfg.Width
	dx := absDiff(ax, bx)
	if w := n.cfg.Width - dx; w < dx {
		dx = w
	}
	dy := absDiff(ay, by)
	if h := n.cfg.Height - dy; h < dy {
		dy = h
	}
	return dx + dy
}

func absDiff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// Latency returns the base delivery latency from a to b, before jitter and
// link contention.
func (n *Network) Latency(a, b NodeID) uint64 {
	h := n.Hops(a, b)
	if h == 0 {
		return n.cfg.LocalLatency
	}
	return uint64(h) * n.cfg.HopLatency
}

// numLinks is the number of directed injection links per node's router —
// +X, -X, +Y, -Y — the four torus channels a message can leave on.
// Dimension-order routing picks exactly one per message; self-sends never
// enter the network and bypass the links (and the contention model).
const numLinks = 4

const (
	linkXPos = iota
	linkXNeg
	linkYPos
	linkYNeg
)

// linkOf returns the index of the injection link a message from a to b
// occupies under dimension-order (X before Y) routing taking the
// shorter wrap direction (positive on a tie), or -1 for a self-send.
func (n *Network) linkOf(a, b NodeID) int {
	ax, ay := int(a)%n.cfg.Width, int(a)/n.cfg.Width
	bx, by := int(b)%n.cfg.Width, int(b)/n.cfg.Width
	if ax != bx {
		if fwd := (bx - ax + n.cfg.Width) % n.cfg.Width; 2*fwd <= n.cfg.Width {
			return int(a)*numLinks + linkXPos
		}
		return int(a)*numLinks + linkXNeg
	}
	if ay != by {
		if fwd := (by - ay + n.cfg.Height) % n.cfg.Height; 2*fwd <= n.cfg.Height {
			return int(a)*numLinks + linkYPos
		}
		return int(a)*numLinks + linkYNeg
	}
	return -1
}

// reserveLink runs the contention model for one send (only called with
// LinkBandwidth > 0): the message claims its injection link in send order
// (per-link FIFO, the queuing discipline), waiting while the link is busy
// with earlier messages, then occupies it for flits x LinkBandwidth cycles.
// It returns the cycle the tail flit leaves the link (serialization
// complete, propagation begins) and accounts the contention telemetry; the
// transmission-start excess over now is the message's queuing delay.
//
// The reservation is eager: the link's future occupancy is resolved at send
// time, which is exact because a link belongs to one source node and that
// node's sends reach it in nondecreasing cycle order under every runner
// (DESIGN.md §10 has the equivalence argument with a queue-at-the-link
// formulation).
func (n *Network) reserveLink(src, dst NodeID, payload coherence.Msg) uint64 {
	li := n.linkOf(src, dst)
	if li < 0 {
		return n.now
	}
	occ := FlitsOf(payload) * n.cfg.LinkBandwidth
	depart := n.now
	c := &n.Contention
	c.Messages++
	if free := n.linkFreeAt[li]; free > depart {
		depart = free
		c.QueuedMessages++
		c.QueueDelayCycles += free - n.now
	}
	n.linkFreeAt[li] = depart + occ
	c.LinkBusyCycles += occ
	// Queue-depth accounting: occupancy windows end in nondecreasing order
	// (back-to-back reservations), so dropping the expired prefix leaves
	// exactly the messages still holding or awaiting this link.
	w := &n.linkWindows[li]
	w.dropThrough(n.now)
	w.push(depart + occ)
	if d := uint64(w.len()); d > c.MaxQueueDepth {
		c.MaxQueueDepth = d
	}
	return depart + occ
}

// endRing is one link's outstanding occupancy-window end cycles: a ring
// that reuses its backing storage like inbox, so steady-state contention
// accounting allocates nothing once rings reach the peak backlog.
type endRing struct {
	q    []uint64
	head int
}

func (r *endRing) len() int { return len(r.q) - r.head }

func (r *endRing) push(end uint64) { r.q = append(r.q, end) }

// dropThrough discards windows that ended at or before now. Ends are
// pushed in nondecreasing order, so the live windows are always a suffix.
func (r *endRing) dropThrough(now uint64) {
	for r.head < len(r.q) && r.q[r.head] <= now {
		r.head++
	}
	switch {
	case r.head == len(r.q):
		r.q = r.q[:0]
		r.head = 0
	case r.head >= 64 && r.head*2 >= len(r.q):
		// Same amortized-O(1) compaction rule as inbox: move elements only
		// once the dead prefix dominates.
		k := copy(r.q, r.q[r.head:])
		r.q = r.q[:k]
		r.head = 0
	}
}

// Send enqueues a message for delivery. It may be called at any point within
// a cycle; delivery happens at a strictly later cycle. In shard mode src
// must be a node this shard owns (sends only happen inside an owned node's
// tick); a foreign dst parks the message in the outbox for the next barrier
// exchange. The signature implements coherence.Port.
//
// With LinkBandwidth > 0 delivery decomposes as queuing delay (waiting for
// the injection link) + serialization (flits x LinkBandwidth on the link) +
// propagation (hop latency, plus jitter); contention only ever delays a
// message, so every lower bound the schedulers rely on — delivery strictly
// after the send, and cross-shard arrival no earlier than send + minimum
// cross-cluster latency (the parallel lookahead) — survives unchanged.
func (n *Network) Send(src, dst NodeID, payload coherence.Msg) {
	if int(dst) < 0 || int(dst) >= n.Nodes() {
		panic(fmt.Sprintf("network: send to invalid node %d", dst))
	}
	lat := n.Latency(src, dst)
	if n.cfg.Jitter > 0 {
		lat += uint64(n.jitter.draw())
	}
	txDone := n.now
	if n.cfg.LinkBandwidth > 0 {
		txDone = n.reserveLink(src, dst, payload)
	}
	arrive := txDone + lat
	if arrive <= n.now {
		arrive = n.now + 1
	}
	p := int(src)*n.Nodes() + int(dst)
	if last := n.lastArrive[p]; arrive <= last {
		arrive = last + 1 // preserve per-pair FIFO ordering
	}
	n.lastArrive[p] = arrive
	m := Message{Src: src, Dst: dst, Payload: payload, arrive: arrive, sent: n.now}
	if n.sharded {
		m.seq = n.srcSeq[src]
		n.srcSeq[src]++
	} else {
		m.seq = n.nextSeq
		n.nextSeq++
	}
	n.Sent++
	n.TotalHops += uint64(n.Hops(src, dst))
	if !n.Owns(dst) {
		n.outbox = append(n.outbox, m)
		return
	}
	n.flight.push(m, n.sharded)
}

// Tick advances the network to the given cycle, moving every message whose
// delivery time has been reached into its destination inbox. now must be
// monotonically non-decreasing across calls; the jump from one call to the
// next may be arbitrarily large (event-loop jumps, epoch advancement), and
// every message with arrive <= now is delivered in ordering-key order
// regardless of how many cycles the jump spanned.
func (n *Network) Tick(now uint64) {
	n.now = now
	for len(n.flight) > 0 && n.flight[0].arrive <= now {
		n.inboxes[n.flight[0].Dst].push(&n.flight[0])
		n.flight.pop(n.sharded)
		n.Delivered++
	}
}

// Recv pops the oldest delivered message for dst, or returns nil when there
// is none. Node controllers call this repeatedly, bounded by their own
// per-cycle service rate. The message is not copied: the pointer is into
// dst's inbox and stays valid until the next Tick, the only call that
// writes inboxes (DESIGN.md §9). A caller that keeps a message longer
// copies it.
func (n *Network) Recv(dst NodeID) *Message {
	return n.inboxes[dst].pop()
}

// InboxLen reports delivered-but-unconsumed messages queued for dst; the
// event loop treats a non-empty inbox as immediate work.
func (n *Network) InboxLen(dst NodeID) int { return n.inboxes[dst].len() }

// NextEvent returns the earliest cycle at which this network (whole torus
// or one shard) next changes state on its own: the earliest in-flight
// delivery, folded with the earliest link release (LinkNextEvent) when the
// contention model is on; memtypes.NoEvent when neither is pending.
// Delivered-but-unconsumed messages are per-destination state reported via
// InboxLen.
//
// Monotonicity contract (shared by every NextEvent in the simulator): the
// hint is valid until the component's state next changes — here, until a
// Send, Inject, or delivering Tick. It must never be later than the true
// next state change; earlier is allowed and costs only a wasted tick. The
// hint is computed read-only, so querying it cannot perturb a run. In shard
// mode the outbox is excluded deliberately: parked cross-shard messages are
// the destination shard's future events, accounted after injection at the
// barrier that precedes any cycle at which they could arrive.
func (n *Network) NextEvent() uint64 {
	ev := uint64(memtypes.NoEvent)
	if len(n.flight) > 0 {
		ev = n.flight[0].arrive
	}
	if n.linkFreeAt != nil {
		if le := n.LinkNextEvent(); le < ev {
			ev = le
		}
	}
	return ev
}

// LinkNextEvent is the per-shard link-occupancy horizon: the earliest
// cycle at which a currently-busy injection link frees, or
// memtypes.NoEvent when every link is idle (always, with LinkBandwidth 0).
// NextEvent folds it in so the event loop stays exact under
// contention by construction: no link state transition can hide inside a
// skipped stretch. The fold is conservative — a release itself mutates
// nothing (reservations are resolved eagerly at Send, and expired
// occupancy windows are dropped lazily at the link's next send), so waking
// at one costs at most a wasted tick per message, never a divergence; see
// the DESIGN.md §10 bound proof. Releases satisfy the strictly-future
// property the schedulers assert (release = depart + occupancy > send
// cycle), and a pending release is never jumped over, so the returned
// cycle always exceeds the caller's clock.
func (n *Network) LinkNextEvent() uint64 {
	ev := uint64(memtypes.NoEvent)
	if n.owned != nil {
		// Shard mode: only owned sources ever touch their links, so the
		// scan skips other shards' permanently-idle slots.
		for id, own := range n.owned {
			if !own {
				continue
			}
			for li := id * numLinks; li < (id+1)*numLinks; li++ {
				if free := n.linkFreeAt[li]; free > n.now && free < ev {
					ev = free
				}
			}
		}
		return ev
	}
	for _, free := range n.linkFreeAt {
		if free > n.now && free < ev {
			ev = free
		}
	}
	return ev
}

// Pending reports the number of undelivered plus delivered-but-unconsumed
// messages; the simulator uses it for quiescence detection.
func (n *Network) Pending() int {
	total := len(n.flight)
	for i := range n.inboxes {
		total += n.inboxes[i].len()
	}
	return total
}

// msgHeap is a hand-rolled min-heap of message values; avoiding
// container/heap keeps pushes boxing-free. The whole-torus network orders
// by (arrive, seq) with a global seq; shards order by the composite key
// (arrive, sent, src, per-source seq), which is a total order equal to the
// global one (see the ordering note on Message). Because the key is total,
// pop order is independent of push order — cross-shard injection at a
// barrier cannot perturb delivery determinism.
type msgHeap []Message

// before reports whether a is delivered before b: the heap order.
func before(a, b *Message, composite bool) bool {
	if a.arrive != b.arrive {
		return a.arrive < b.arrive
	}
	if composite {
		if a.sent != b.sent {
			return a.sent < b.sent
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
	}
	return a.seq < b.seq
}

// push and pop sift a hole rather than swapping: each level moves one
// Message, and the sifted message is written once, where it lands. The key
// is a total order (seq is unique), so the array ends up exactly as the
// swapping sift left it.
func (h *msgHeap) push(m Message, composite bool) {
	*h = append(*h, m)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&m, &q[parent], composite) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = m
}

// pop removes the minimum, q[0]; callers read it there first.
func (h *msgHeap) pop(composite bool) {
	q := *h
	last := len(q) - 1
	m := &q[last] // cut off below, never overwritten
	q = q[:last]  // no zeroing: Message is pointer-free
	*h = q
	i := 0
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && before(&q[r], &q[c], composite) {
			c = r
		}
		if !before(&q[c], m, composite) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if len(q) > 0 {
		q[i] = *m
	}
}
