// The test package is external (with a dot-import for brevity): the network
// now imports coherence to embed the wire format by value, so a white-box
// test importing network would be an import cycle.
package coherence_test

import (
	"math/rand"
	"testing"

	"invisifence/internal/memctrl"
	"invisifence/internal/memtypes"
	"invisifence/internal/network"

	. "invisifence/internal/coherence"
)

// agent is a minimal correct cache controller: one block cached at most,
// responds to probes, tracks a writeback buffer. It lets the directory be
// tested without the full node package.
type agent struct {
	id    network.NodeID
	state string // "I", "S", "E", "M"
	data  memtypes.BlockData
	dirty bool

	wbData  map[memtypes.Addr]memtypes.BlockData
	got     []MsgKind
	fills   int
	net     *network.Network
	home    network.NodeID
	block   memtypes.Addr
	pending bool
}

func newAgent(id network.NodeID, net *network.Network, home network.NodeID, block memtypes.Addr) *agent {
	return &agent{id: id, state: "I", net: net, home: home, block: block,
		wbData: make(map[memtypes.Addr]memtypes.BlockData)}
}

func (a *agent) send(m Msg) { a.net.Send(a.id, a.home, m) }

func (a *agent) handle(src network.NodeID, m Msg) {
	a.got = append(a.got, m.Kind)
	switch m.Kind {
	case DataS, FwdDataS:
		a.state, a.data, a.pending = "S", m.Data, false
		a.fills++
	case DataE:
		a.state, a.data, a.pending = "E", m.Data, false
		a.fills++
	case DataM, FwdDataM:
		a.state, a.data, a.pending = "M", m.Data, false
		a.dirty = m.Kind == FwdDataM
		a.fills++
	case GrantX:
		a.state, a.pending = "E", false
		a.fills++
	case Inv:
		a.state = "I"
		a.net.Send(a.id, src, Msg{Kind: InvAck, Addr: m.Addr})
	case FwdGetS:
		data := a.data
		if wb, ok := a.wbData[m.Addr]; ok {
			data = wb
		} else {
			a.state = "S"
		}
		a.net.Send(a.id, m.Req, Msg{Kind: FwdDataS, Addr: m.Addr, Data: data, HasData: true})
		a.net.Send(a.id, src, Msg{Kind: OwnerWBS, Addr: m.Addr, Data: data, HasData: true})
	case FwdGetX:
		data := a.data
		if wb, ok := a.wbData[m.Addr]; ok {
			data = wb
		} else {
			a.state = "I"
		}
		a.net.Send(a.id, m.Req, Msg{Kind: FwdDataM, Addr: m.Addr, Data: data, HasData: true})
		a.net.Send(a.id, src, Msg{Kind: XferAck, Addr: m.Addr})
	case WBAck:
		delete(a.wbData, m.Addr)
	}
}

func (a *agent) evict() {
	a.wbData[a.block] = a.data
	a.send(Msg{Kind: PutX, Addr: a.block, Data: a.data, HasData: true, Dirty: a.state == "M" && a.dirty})
	a.state = "I"
}

// harness ties a directory at node 0 and agents at nodes 1..n together.
type harness struct {
	net    *network.Network
	dir    *Directory
	mem    *memctrl.Memory
	agents map[network.NodeID]*agent
	now    uint64
}

func newHarness(t *testing.T, nAgents int) *harness {
	t.Helper()
	net := network.New(network.Config{Width: 4, Height: 1, HopLatency: 3, LocalLatency: 1})
	mem := memctrl.New(memctrl.Config{AccessLatency: 10, Banks: 4, BankBusy: 1})
	h := &harness{
		net:    net,
		mem:    mem,
		dir:    NewDirectory(0, 4, mem, net),
		agents: make(map[network.NodeID]*agent),
	}
	for i := 1; i <= nAgents; i++ {
		h.agents[network.NodeID(i)] = newAgent(network.NodeID(i), net, 0, 0x1000)
	}
	return h
}

// step advances one cycle, delivering all messages.
func (h *harness) step() {
	h.now++
	h.net.Tick(h.now)
	for {
		m := h.net.Recv(0)
		if m == nil {
			break
		}
		h.dir.Handle(h.now, m.Src, &m.Payload)
	}
	h.dir.Tick(h.now)
	for id, a := range h.agents {
		for {
			m := h.net.Recv(id)
			if m == nil {
				break
			}
			a.handle(m.Src, m.Payload)
		}
	}
}

func (h *harness) run(cycles int) {
	for i := 0; i < cycles; i++ {
		h.step()
	}
}

const blk = memtypes.Addr(0x1000)

func TestGetSGrantsExclusiveWhenUnshared(t *testing.T) {
	h := newHarness(t, 2)
	h.mem.WriteWord(blk, 7)
	h.agents[1].send(Msg{Kind: GetS, Addr: blk})
	h.run(40)
	if h.agents[1].state != "E" {
		t.Fatalf("agent1 state %s, want E (MESI exclusive-clean grant)", h.agents[1].state)
	}
	if h.agents[1].data[0] != 7 {
		t.Fatal("wrong data")
	}
}

func TestSecondGetSShares(t *testing.T) {
	h := newHarness(t, 2)
	h.agents[1].send(Msg{Kind: GetS, Addr: blk})
	h.run(40)
	h.agents[2].send(Msg{Kind: GetS, Addr: blk})
	h.run(40)
	if h.agents[2].state != "S" {
		t.Fatalf("agent2 state %s, want S", h.agents[2].state)
	}
	// Agent1 was E-owner: the directory forwarded, downgrading it.
	if h.agents[1].state != "S" {
		t.Fatalf("agent1 state %s, want S after FwdGetS", h.agents[1].state)
	}
}

func TestGetXInvalidatesSharers(t *testing.T) {
	h := newHarness(t, 3)
	h.agents[1].send(Msg{Kind: GetS, Addr: blk})
	h.run(40)
	h.agents[2].send(Msg{Kind: GetS, Addr: blk})
	h.run(40)
	h.agents[3].send(Msg{Kind: GetX, Addr: blk})
	h.run(60)
	if h.agents[3].state != "M" && h.agents[3].state != "E" {
		t.Fatalf("agent3 state %s, want writable", h.agents[3].state)
	}
	if h.agents[1].state != "I" || h.agents[2].state != "I" {
		t.Fatalf("sharers not invalidated: %s %s", h.agents[1].state, h.agents[2].state)
	}
	if owner, ok := h.dir.Owner(blk); !ok || owner != 3 {
		t.Fatalf("directory owner = %d, %v", owner, ok)
	}
}

func TestOwnershipTransferCarriesDirtyData(t *testing.T) {
	h := newHarness(t, 2)
	h.agents[1].send(Msg{Kind: GetX, Addr: blk})
	h.run(40)
	// Agent1 writes locally (silent E->M).
	h.agents[1].data[0] = 99
	h.agents[1].state = "M"
	h.agents[1].dirty = true
	h.agents[2].send(Msg{Kind: GetX, Addr: blk})
	h.run(60)
	if h.agents[2].state != "M" || h.agents[2].data[0] != 99 {
		t.Fatalf("dirty data lost in 3-hop transfer: %s %d", h.agents[2].state, h.agents[2].data[0])
	}
}

func TestUpgradeGrantsWithoutData(t *testing.T) {
	h := newHarness(t, 2)
	h.agents[1].send(Msg{Kind: GetS, Addr: blk})
	h.run(40)
	h.agents[2].send(Msg{Kind: GetS, Addr: blk})
	h.run(40)
	h.agents[1].send(Msg{Kind: Upgrade, Addr: blk})
	h.run(60)
	if h.agents[1].state != "E" {
		t.Fatalf("agent1 state %s after upgrade", h.agents[1].state)
	}
	if h.agents[2].state != "I" {
		t.Fatal("other sharer not invalidated on upgrade")
	}
	// The grant must have been GrantX (no data transfer needed).
	found := false
	for _, k := range h.agents[1].got {
		if k == GrantX {
			found = true
		}
	}
	if !found {
		t.Fatal("expected GrantX")
	}
}

func TestWritebackUpdatesMemory(t *testing.T) {
	h := newHarness(t, 2)
	h.agents[1].send(Msg{Kind: GetX, Addr: blk})
	h.run(40)
	h.agents[1].data[0] = 55
	h.agents[1].state = "M"
	h.agents[1].dirty = true
	h.agents[1].evict()
	h.run(40)
	if got := h.mem.ReadWord(blk); got != 55 {
		t.Fatalf("memory = %d after PutX, want 55", got)
	}
	if len(h.agents[1].wbData) != 0 {
		t.Fatal("WBAck did not clear the writeback buffer")
	}
	// A later GetS must come from memory (Unowned).
	h.agents[2].send(Msg{Kind: GetS, Addr: blk})
	h.run(40)
	if h.agents[2].data[0] != 55 {
		t.Fatal("stale data after writeback")
	}
}

func TestWritebackRaceServedFromWBBuffer(t *testing.T) {
	// Owner evicts; before the PutX is processed, another agent's GetX is
	// already in flight. The Fwd must be served from the WB buffer and the
	// stale PutX acknowledged without clobbering the new owner's data.
	h := newHarness(t, 2)
	h.agents[1].send(Msg{Kind: GetX, Addr: blk})
	h.run(40)
	h.agents[1].data[0] = 11
	h.agents[1].state = "M"
	h.agents[1].dirty = true
	// Both race: the GetX is sent first so the directory forwards to the
	// (just-evicting) owner.
	h.agents[2].send(Msg{Kind: GetX, Addr: blk})
	h.agents[1].evict()
	h.run(80)
	if h.agents[2].state != "M" || h.agents[2].data[0] != 11 {
		t.Fatalf("race lost data: %s %d", h.agents[2].state, h.agents[2].data[0])
	}
	if owner, ok := h.dir.Owner(blk); !ok || owner != 2 {
		t.Fatalf("owner = %d, %v", owner, ok)
	}
	if len(h.agents[1].wbData) != 0 {
		t.Fatal("WB buffer entry not released")
	}
}

// TestWriteSerialization is the protocol's core property (§2.1): all writes
// to one block are serialized; the final memory value matches the last
// writer in grant order.
func TestWriteSerialization(t *testing.T) {
	h := newHarness(t, 3)
	rng := rand.New(rand.NewSource(3))
	writes := 0
	var lastVal memtypes.Word
	for round := 0; round < 30; round++ {
		id := network.NodeID(1 + rng.Intn(3))
		a := h.agents[id]
		if a.state == "E" || a.state == "M" {
			writes++
			lastVal = memtypes.Word(writes)
			a.data[0] = lastVal
			a.state = "M"
			a.dirty = true
		} else if !a.pending {
			a.pending = true
			a.send(Msg{Kind: GetX, Addr: blk})
		}
		h.run(25)
	}
	// Drain: evict every cached copy and check memory.
	for _, a := range h.agents {
		if a.state == "E" || a.state == "M" {
			a.evict()
		}
	}
	h.run(60)
	if got := h.mem.ReadWord(blk); got != lastVal {
		t.Fatalf("memory = %d, want %d (write serialization broken)", got, lastVal)
	}
	if h.dir.PendingTransactions() != 0 {
		t.Fatal("directory left busy")
	}
}

// TestSWMRInvariant: after every quiescent point, at most one agent holds a
// writable copy (single-writer-multiple-reader).
func TestSWMRInvariant(t *testing.T) {
	h := newHarness(t, 3)
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 40; round++ {
		id := network.NodeID(1 + rng.Intn(3))
		a := h.agents[id]
		if !a.pending && a.state == "I" {
			kind := GetS
			if rng.Intn(2) == 0 {
				kind = GetX
			}
			a.pending = true
			a.send(Msg{Kind: kind, Addr: blk})
		}
		h.run(30) // quiesce
		writable, readable := 0, 0
		for _, ag := range h.agents {
			switch ag.state {
			case "E", "M":
				writable++
			case "S":
				readable++
			}
		}
		if writable > 1 || (writable == 1 && readable > 0) {
			t.Fatalf("SWMR violated: %d writable, %d readable", writable, readable)
		}
	}
}

func TestHomeOfInterleaving(t *testing.T) {
	if HomeOf(0, 16) != 0 || HomeOf(64, 16) != 1 || HomeOf(64*16, 16) != 0 {
		t.Fatal("home interleaving wrong")
	}
	if HomeOf(0x1000, 4) != network.NodeID((0x1000>>6)%4) {
		t.Fatal("home formula wrong")
	}
}

func TestMsgKindStringsAndClassification(t *testing.T) {
	for k := GetS; k <= FwdDataM; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has no string", k)
		}
	}
	for _, k := range []MsgKind{GetS, GetX, Upgrade, PutX, InvAck, OwnerWBS, XferAck} {
		if !k.IsDirRequest() {
			t.Errorf("%v should be a directory request", k)
		}
	}
	for _, k := range []MsgKind{DataS, DataM, GrantX, Inv, FwdGetS, FwdGetX, WBAck, FwdDataS, FwdDataM} {
		if k.IsDirRequest() {
			t.Errorf("%v should not be a directory request", k)
		}
	}
}
