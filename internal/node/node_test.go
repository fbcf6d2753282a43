package node

import (
	"testing"
	"unsafe"

	"invisifence/internal/cache"
	"invisifence/internal/consistency"
	ifcore "invisifence/internal/core"
	"invisifence/internal/cpu"
	"invisifence/internal/isa"
	"invisifence/internal/memctrl"
	"invisifence/internal/memtypes"
	"invisifence/internal/network"
)

// rig is a 2-node bring-up harness operating the nodes directly (no sim
// package) so tests can inspect node internals mid-run.
type rig struct {
	net   *network.Network
	nodes []*Node
	now   uint64
}

func newRig(t *testing.T, model consistency.Model, eng ifcore.Config, progs []*isa.Program) *rig {
	t.Helper()
	net := network.New(network.Config{Width: 2, Height: 1, HopLatency: 10, LocalLatency: 1})
	cfg := Config{
		Nodes:              2,
		Model:              model,
		Engine:             eng,
		Core:               cpu.DefaultConfig(),
		L1:                 cache.Config{SizeBytes: 4 << 10, Ways: 2, HitLatency: 2, Name: "L1"},
		L2:                 cache.Config{SizeBytes: 64 << 10, Ways: 8, HitLatency: 10, Name: "L2"},
		Memory:             memctrl.Config{AccessLatency: 40, Banks: 4, BankBusy: 2},
		MSHRs:              16,
		SBCapacity:         8,
		StorePrefetchDepth: 4,
		MsgsPerCycle:       8,
		SnoopLQ:            true,
		FillHoldCycles:     8,
	}
	if cfg.UsesFIFOSB() {
		cfg.SBCapacity = 64
	}
	r := &rig{net: net}
	for i := 0; i < 2; i++ {
		nc := cfg
		nc.ID = network.NodeID(i)
		var regs [isa.NumRegs]memtypes.Word
		r.nodes = append(r.nodes, New(nc, net, progs[i], regs))
	}
	return r
}

func (r *rig) step(n int) {
	for i := 0; i < n; i++ {
		r.now++
		r.net.Tick(r.now)
		for _, nd := range r.nodes {
			nd.Tick(r.now)
		}
	}
}

func (r *rig) runUntilDone(t *testing.T, max int) {
	t.Helper()
	for i := 0; i < max; i++ {
		r.step(1)
		done := true
		for _, nd := range r.nodes {
			if !nd.Finished() {
				done = false
			}
		}
		if done {
			return
		}
	}
	t.Fatalf("rig did not quiesce in %d cycles:\n%s\n%s",
		max, r.nodes[0].DebugString(), r.nodes[1].DebugString())
}

func halt() *isa.Program {
	b := isa.NewBuilder("halt")
	b.Halt()
	return b.MustBuild()
}

// idle never halts (a very long Delay), so the engine's halt latch stays
// clear and tests can drive the node's backend interface directly.
func idle() *isa.Program {
	b := isa.NewBuilder("idle")
	b.Delay(1 << 40)
	b.Halt()
	return b.MustBuild()
}

// TestCleaningWritebackPreservesPreSpecValue drives the §3.2 sequence
// directly: a non-speculative dirty value, then a speculative overwrite
// (forcing a cleaning writeback), then an abort. The pre-speculative value
// must be recovered.
func TestCleaningWritebackPreservesPreSpecValue(t *testing.T) {
	const addr = memtypes.Addr(0x1000)
	r := newRig(t, consistency.RMO, ifcore.DefaultSelective(consistency.RMO),
		[]*isa.Program{idle(), halt()})
	n0 := r.nodes[0]
	// Establish a non-speculative dirty line: a store that misses, fills,
	// and drains.
	if ok, _ := n0.RetireStore(isa.St, addr, 7); !ok {
		t.Fatal("setup store rejected")
	}
	for i := 0; i < 500 && n0.SBOccupancy() > 0; i++ {
		r.step(1)
	}
	line := n0.L1().Peek(addr)
	if line == nil || line.State != cache.Modified || line.Data[0] != 7 {
		t.Fatalf("setup failed: %+v (sb=%d)", line, n0.SBOccupancy())
	}

	// Begin speculation. Two speculative stores: one to the dirty block
	// (forcing a cleaning writeback) and one to a remote block whose long
	// miss keeps the buffer non-empty, blocking the opportunistic commit
	// so the speculative bits stay observable.
	eng := n0.Engine()
	eng.Begin()
	epoch := eng.YoungestEpoch()
	const remote = memtypes.Addr(0x9040)
	if ok, _ := n0.RetireStore(isa.St, addr, 9); !ok {
		t.Fatal("speculative store rejected")
	}
	if ok, _ := n0.RetireStore(isa.St, remote, 3); !ok {
		t.Fatal("remote speculative store rejected")
	}
	// The store must wait in the buffer while the cleaning writeback runs.
	if n0.SBOccupancy() == 0 {
		t.Fatal("store bypassed the buffer during cleaning")
	}
	r.step(30) // cleaning completes and the local store drains
	if !eng.Speculating() {
		t.Fatal("speculation committed despite the outstanding remote store")
	}
	line = n0.L1().Peek(addr)
	if line == nil || !line.SpecWritten(epoch) || line.Data[0] != 9 {
		t.Fatalf("speculative value not in L1: %+v", line)
	}
	l2line := n0.L2().Peek(addr)
	if l2line == nil || l2line.Data[0] != 7 || l2line.State != cache.Modified {
		t.Fatalf("cleaning writeback missing: L2 %+v", l2line)
	}
	if n0.CleaningWBs == 0 {
		t.Fatal("cleaning writeback not counted")
	}

	// Abort: the L1 speculative line is flash-invalidated and the value
	// reverts to the pre-speculative 7 from the L2.
	eng.AbortAll()
	if l := n0.L1().Peek(addr); l != nil {
		t.Fatalf("speculatively-written line survived abort: %+v", l)
	}
	if got := n0.L2().Peek(addr).Data[0]; got != 7 {
		t.Fatalf("pre-speculative value lost: %d", got)
	}
	if n0.SBOccupancy() != 0 {
		t.Fatal("speculative buffer entries survived abort")
	}
}

// TestCommitMakesSpeculativeStoreVisible: commit flash-clears the bits and
// the value becomes ordinary dirty state.
func TestCommitMakesSpeculativeStoreVisible(t *testing.T) {
	const addr = memtypes.Addr(0x2000)
	r := newRig(t, consistency.RMO, ifcore.DefaultSelective(consistency.RMO),
		[]*isa.Program{idle(), halt()})
	n0 := r.nodes[0]
	if ok, _ := n0.RetireStore(isa.St, addr, 1); !ok {
		t.Fatal("setup store rejected")
	}
	for i := 0; i < 500 && n0.SBOccupancy() > 0; i++ {
		r.step(1)
	}
	eng := n0.Engine()
	eng.Begin()
	if ok, _ := n0.RetireStore(isa.St, addr, 2); !ok {
		t.Fatal("spec store failed")
	}
	// The cleaning writeback runs, the store drains, and the engine's
	// opportunistic commit fires the moment the buffer is empty.
	for i := 0; i < 300 && eng.Speculating(); i++ {
		r.step(1)
	}
	if eng.Speculating() {
		t.Fatalf("no opportunistic commit (sb=%d)", n0.SBOccupancy())
	}
	line := n0.L1().Peek(addr)
	if line == nil || line.SpecAny() || line.Data[0] != 2 || line.State != cache.Modified {
		t.Fatalf("committed state wrong: %+v", line)
	}
}

// TestEvictionForcesCommitOrAbort: filling a set whose ways are all
// speculative must not evict speculative state — the engine resolves the
// pressure with a forced commit or an abort.
func TestEvictionForcesCommitOrAbort(t *testing.T) {
	r := newRig(t, consistency.RMO, ifcore.DefaultSelective(consistency.RMO),
		[]*isa.Program{idle(), halt()})
	n0 := r.nodes[0]
	eng := n0.Engine()
	// L1: 4KB, 2 ways, 64B blocks -> 32 sets; set stride = 2KB.
	setStride := memtypes.Addr(32 * memtypes.BlockBytes)
	a0, a1, a2 := memtypes.Addr(0x8000), memtypes.Addr(0x8000)+setStride, memtypes.Addr(0x8000)+2*setStride

	// Warm both ways of the set.
	n0.StartLoad(1, a0)
	n0.StartLoad(2, a1)
	for i := 0; i < 400 && (n0.L1().Peek(a0) == nil || n0.L1().Peek(a1) == nil); i++ {
		r.step(1)
	}
	if n0.L1().Peek(a0) == nil || n0.L1().Peek(a1) == nil {
		t.Fatal("warmup fills never arrived")
	}

	// Speculate, with a feeder keeping the store buffer non-empty so the
	// opportunistic commit cannot resolve the pressure for free.
	eng.Begin()
	y := eng.YoungestEpoch()
	n0.L1().MarkSpecRead(n0.L1().Peek(a0), y)
	n0.L1().MarkSpecRead(n0.L1().Peek(a1), y)
	feed := memtypes.Addr(0x20040)
	n0.RetireStore(isa.St, feed, 1)

	// A load to a third block of the same set forces the resolution.
	n0.StartLoad(3, a2)
	resolved := func() bool {
		return n0.Stats().ForcedCommits > 0 || n0.Stats().Aborts > 0
	}
	for i := 0; i < 1000 && !resolved(); i++ {
		if eng.Speculating() {
			// Keep the bits asserted and the buffer non-empty.
			if l := n0.L1().Peek(a0); l != nil {
				n0.L1().MarkSpecRead(l, y)
			}
			if l := n0.L1().Peek(a1); l != nil {
				n0.L1().MarkSpecRead(l, y)
			}
			if n0.SBOccupancy() == 0 {
				feed += memtypes.Addr(memtypes.BlockBytes)
				n0.RetireStore(isa.St, feed, 1)
			}
		}
		r.step(1)
	}
	if !resolved() {
		t.Fatalf("neither forced commit nor abort resolved the speculative set (a2 present=%v)",
			n0.L1().Peek(a2) != nil)
	}
}

// TestProbeAbortsSpeculativeReader: an external write to a speculatively
// read line aborts the reader (the §3.2 violation rule).
func TestProbeAbortsSpeculativeReader(t *testing.T) {
	const addr = memtypes.Addr(0x3000)
	r := newRig(t, consistency.RMO, ifcore.DefaultSelective(consistency.RMO),
		[]*isa.Program{idle(), idle()})
	n0, n1 := r.nodes[0], r.nodes[1]

	// Warm the line into node 0.
	n0.StartLoad(1, addr)
	for i := 0; i < 300 && n0.L1().Peek(addr) == nil; i++ {
		r.step(1)
	}
	line := n0.L1().Peek(addr)
	if line == nil {
		t.Fatal("read line never arrived")
	}
	// Begin a speculation that cannot commit yet (a pending remote store
	// keeps the buffer non-empty) and mark the line speculatively read.
	eng := n0.Engine()
	eng.Begin()
	if ok, _ := n0.RetireStore(isa.St, memtypes.Addr(0x9040), 3); !ok {
		t.Fatal("blocker store rejected")
	}
	n0.L1().MarkSpecRead(line, eng.YoungestEpoch())

	// Node 1 writes the speculatively-read block: its GetX must abort
	// node 0's speculation.
	if ok, _ := n1.RetireStore(isa.St, addr, 9); !ok {
		t.Fatal("writer store rejected")
	}
	abortsBefore := n0.Stats().Aborts
	for i := 0; i < 3000 && n0.Stats().Aborts == abortsBefore; i++ {
		r.step(1)
	}
	if n0.Stats().Aborts == abortsBefore {
		t.Fatal("external write to a speculatively-read line did not abort")
	}
}

// TestUsesFIFOSB checks the Figure 2 buffer selection.
func TestUsesFIFOSB(t *testing.T) {
	mk := func(m consistency.Model, mode ifcore.Mode) Config {
		return Config{Model: m, Engine: ifcore.Config{Mode: mode, Model: m}}
	}
	if c := mk(consistency.SC, ifcore.ModeOff); !c.UsesFIFOSB() {
		t.Fatal("conventional SC must use the FIFO buffer")
	}
	if c := mk(consistency.RMO, ifcore.ModeOff); c.UsesFIFOSB() {
		t.Fatal("conventional RMO must use the coalescing buffer")
	}
	if c := mk(consistency.SC, ifcore.ModeSelective); c.UsesFIFOSB() {
		t.Fatal("InvisiFence always uses the coalescing buffer")
	}
}

// TestCoVDeferralEndsInCommit: with commit-on-violate, a conflicting probe
// is parked; when the speculation drains and commits within the window, the
// probe is served without any rollback (a "CoV save", §3.2).
func TestCoVDeferralEndsInCommit(t *testing.T) {
	const addr = memtypes.Addr(0x3000)
	eng := ifcore.DefaultSelective(consistency.RMO)
	eng.CoVTimeout = 4000
	r := newRig(t, consistency.RMO, eng, []*isa.Program{idle(), idle()})
	n0, n1 := r.nodes[0], r.nodes[1]

	// Node 0 speculatively writes addr (direct, line writable after warm).
	n0.StartLoad(1, addr)
	for i := 0; i < 300 && n0.L1().Peek(addr) == nil; i++ {
		r.step(1)
	}
	e := n0.Engine()
	e.Begin()
	if ok, _ := n0.RetireStore(isa.St, addr, 5); !ok {
		t.Fatal("spec store rejected")
	}
	// A remote blocker store delays the drain (and hence the commit) long
	// enough for node 1's probe to arrive and be deferred.
	if ok, _ := n0.RetireStore(isa.St, memtypes.Addr(0x9040), 3); !ok {
		t.Fatal("blocker rejected")
	}
	if ok, _ := n1.RetireStore(isa.St, addr, 9); !ok {
		t.Fatal("writer store rejected")
	}
	for i := 0; i < 5000 && n0.Stats().CoVSaves == 0 && n0.Stats().Aborts == 0; i++ {
		r.step(1)
	}
	if n0.Stats().CoVDeferrals == 0 {
		t.Fatal("probe was never deferred")
	}
	if n0.Stats().Aborts != 0 {
		t.Fatal("speculation aborted despite commit-on-violate")
	}
	if n0.Stats().CoVSaves == 0 {
		t.Fatal("deferral did not end in a commit")
	}
	// The writer eventually gets the committed value and applies its own.
	for i := 0; i < 3000 && n1.SBOccupancy() > 0; i++ {
		r.step(1)
	}
	if got := n1.L1().Peek(addr); got == nil || got.Data[0] != 9 {
		t.Fatalf("writer's store did not land after the save: %+v", got)
	}
}

// TestNodeSize pins the Node struct, one allocation per simulated node,
// inside the allocator's 352-byte size class: it keeps the six Config
// fields it reads, not a copy of the 296-byte Config.
func TestNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(Node{}); n > 352 {
		t.Fatalf("Node is %d bytes, want <= 352", n)
	}
}
