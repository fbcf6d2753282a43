package cpu

import (
	"math/rand"
	"testing"
	"unsafe"

	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
)

// fakeBackend is a single-cycle flat memory with no ordering constraints —
// enough to unit-test the core pipeline in isolation.
type fakeBackend struct {
	mem        map[memtypes.Addr]memtypes.Word
	now        *uint64
	hitLatency uint64

	// Controls for stall-path tests.
	stallStores bool
	stallReason StallReason
	missAddrs   map[memtypes.Addr]bool // loads to these addresses go pending
	pending     []pendingFill
	retryEvery  int // every retryEvery-th StartLoad finds no MSHR (0: never)
	starts      int

	retired int
}

// pendingFill is an outstanding miss and the word it will deliver: the
// memory's value when the miss started, as a fill from the memory system
// carries no store retired after the request.
type pendingFill struct {
	tag uint64
	val memtypes.Word
}

func newFake(now *uint64) *fakeBackend {
	return &fakeBackend{
		mem:        make(map[memtypes.Addr]memtypes.Word),
		now:        now,
		hitLatency: 2,
		missAddrs:  make(map[memtypes.Addr]bool),
	}
}

func (f *fakeBackend) StartLoad(tag uint64, addr memtypes.Addr) LoadResult {
	if f.starts++; f.retryEvery > 0 && f.starts%f.retryEvery == 0 {
		return LoadResult{Status: LoadRetry}
	}
	if f.missAddrs[memtypes.BlockAddr(addr)] {
		f.pending = append(f.pending, pendingFill{tag, f.mem[addr]})
		return LoadResult{Status: LoadMiss}
	}
	return LoadResult{Status: LoadHit, Value: f.mem[addr], ReadyAt: *f.now + f.hitLatency}
}

func (f *fakeBackend) RetireLoad(op isa.Op, addr memtypes.Addr, fromL1 bool) (bool, StallReason) {
	return true, StallNone
}

func (f *fakeBackend) RetireStore(op isa.Op, addr memtypes.Addr, val memtypes.Word) (bool, StallReason) {
	if f.stallStores {
		return false, f.stallReason
	}
	f.mem[addr] = val
	return true, StallNone
}

func (f *fakeBackend) RetireAtomic(op isa.Op, addr memtypes.Addr, a, b memtypes.Word) (bool, memtypes.Word, StallReason) {
	old := f.mem[addr]
	if nv, doWrite := AtomicApply(op, old, a, b); doWrite {
		f.mem[addr] = nv
	}
	return true, old, StallNone
}

func (f *fakeBackend) RetireFence() (bool, StallReason) { return true, StallNone }
func (f *fakeBackend) OnRetireInstr()                   { f.retired++ }

// run executes prog on a fresh core until halt or maxCycles.
func run(t *testing.T, prog *isa.Program, setup func(*fakeBackend), maxCycles uint64) (*Core, *fakeBackend) {
	t.Helper()
	var now uint64
	fb := newFake(&now)
	if setup != nil {
		setup(fb)
	}
	c := New(0, DefaultConfig(), prog, [isa.NumRegs]memtypes.Word{}, fb)
	for now = 1; now < maxCycles && !c.Halted(); now++ {
		c.Tick(now)
		// Deliver one pending fill per cycle after a fixed delay.
		if len(fb.pending) > 0 && now%17 == 0 {
			p := fb.pending[0]
			fb.pending = fb.pending[1:]
			c.FillLoad(p.tag, p.val)
		}
	}
	if !c.Halted() {
		t.Fatalf("program did not halt in %d cycles", maxCycles)
	}
	return c, fb
}

func TestALUAndBranchLoop(t *testing.T) {
	b := isa.NewBuilder("loop")
	b.MovI(isa.R1, 0)
	b.MovI(isa.R2, 10)
	b.Label("l")
	b.AddI(isa.R1, isa.R1, 3)
	b.AddI(isa.R2, isa.R2, -1)
	b.Bne(isa.R2, isa.R0, "l")
	b.Halt()
	c, _ := run(t, b.MustBuild(), nil, 10_000)
	if got := c.ArchReg(isa.R1); got != 30 {
		t.Fatalf("r1 = %d, want 30", got)
	}
	if c.Retired == 0 || c.RetiredLoads != 0 {
		t.Fatalf("bad counters: %d retired", c.Retired)
	}
}

func TestAllALUOps(t *testing.T) {
	b := isa.NewBuilder("alu")
	b.MovI(isa.R1, 12)
	b.MovI(isa.R2, 5)
	b.Add(isa.R3, isa.R1, isa.R2)   // 17
	b.Sub(isa.R4, isa.R1, isa.R2)   // 7
	b.Mul(isa.R5, isa.R1, isa.R2)   // 60
	b.And(isa.R6, isa.R1, isa.R2)   // 4
	b.Or(isa.R7, isa.R1, isa.R2)    // 13
	b.Xor(isa.R8, isa.R1, isa.R2)   // 9
	b.ShlI(isa.R9, isa.R1, 2)       // 48
	b.ShrI(isa.R12, isa.R1, 2)      // 3
	b.SltU(isa.R13, isa.R2, isa.R1) // 1
	b.Seq(isa.R14, isa.R1, isa.R1)  // 1
	b.Halt()
	c, _ := run(t, b.MustBuild(), nil, 1000)
	want := map[isa.Reg]memtypes.Word{
		isa.R3: 17, isa.R4: 7, isa.R5: 60, isa.R6: 4, isa.R7: 13,
		isa.R8: 9, isa.R9: 48, isa.R12: 3, isa.R13: 1, isa.R14: 1,
	}
	for r, v := range want {
		if got := c.ArchReg(r); got != v {
			t.Errorf("r%d = %d, want %d", r, got, v)
		}
	}
}

func TestStoreLoadForwardValue(t *testing.T) {
	b := isa.NewBuilder("fwd2")
	b.MovI(isa.R1, 0x100)
	b.MovI(isa.R2, 42)
	b.St(isa.R1, 0, isa.R2)
	b.Ld(isa.R3, isa.R1, 0)
	b.St(isa.R1, 8, isa.R3) // persist for inspection
	b.Halt()
	c, fb := run(t, b.MustBuild(), nil, 10_000)
	if got := fb.mem[0x108]; got != 42 {
		t.Fatalf("forwarded value = %d, want 42", got)
	}
	if got := c.ArchReg(isa.R3); got != 42 {
		t.Fatalf("r3 = %d", got)
	}
}

func TestLoadMissFillPath(t *testing.T) {
	b := isa.NewBuilder("miss")
	b.MovI(isa.R1, 0x200)
	b.Ld(isa.R3, isa.R1, 0)
	b.AddI(isa.R3, isa.R3, 1)
	b.St(isa.R1, 8, isa.R3)
	b.Halt()
	_, fb := run(t, b.MustBuild(), func(f *fakeBackend) {
		f.mem[0x200] = 10
		f.missAddrs[memtypes.BlockAddr(0x200)] = true
	}, 10_000)
	if got := fb.mem[0x208]; got != 11 {
		t.Fatalf("mem = %d, want 11", got)
	}
}

func TestAtomicProducesOldValue(t *testing.T) {
	b := isa.NewBuilder("atomic")
	b.MovI(isa.R1, 0x300)
	b.MovI(isa.R2, 5)
	b.Fadd(isa.R3, isa.R1, 0, isa.R2) // r3 = old (0), mem = 5
	b.Fadd(isa.R4, isa.R1, 0, isa.R2) // r4 = 5, mem = 10
	b.MovI(isa.R5, 10)
	b.MovI(isa.R6, 77)
	b.Cas(isa.R7, isa.R1, 0, isa.R5, isa.R6) // succeeds: r7 = 10, mem = 77
	b.Cas(isa.R8, isa.R1, 0, isa.R5, isa.R6) // fails: r8 = 77
	b.Swap(isa.R9, isa.R1, 0, isa.R2)        // r9 = 77, mem = 5
	b.Halt()
	c, fb := run(t, b.MustBuild(), nil, 10_000)
	if c.ArchReg(isa.R3) != 0 || c.ArchReg(isa.R4) != 5 || c.ArchReg(isa.R7) != 10 ||
		c.ArchReg(isa.R8) != 77 || c.ArchReg(isa.R9) != 77 {
		t.Fatalf("atomic results wrong: %d %d %d %d %d",
			c.ArchReg(isa.R3), c.ArchReg(isa.R4), c.ArchReg(isa.R7), c.ArchReg(isa.R8), c.ArchReg(isa.R9))
	}
	if fb.mem[0x300] != 5 {
		t.Fatalf("final mem = %d", fb.mem[0x300])
	}
	if c.RetiredAtomics != 5 {
		t.Fatalf("retired atomics = %d", c.RetiredAtomics)
	}
}

func TestBranchMispredictRecovery(t *testing.T) {
	// A data-dependent branch whose direction alternates: the predictor
	// will mispredict at least once; results must still be exact.
	b := isa.NewBuilder("flip")
	b.MovI(isa.R1, 0)  // i
	b.MovI(isa.R2, 20) // n
	b.MovI(isa.R3, 0)  // evens
	b.Label("l")
	b.MovI(isa.R4, 1)
	b.And(isa.R4, isa.R1, isa.R4)
	b.Bne(isa.R4, isa.R0, "odd")
	b.AddI(isa.R3, isa.R3, 1)
	b.Label("odd")
	b.AddI(isa.R1, isa.R1, 1)
	b.Bltu(isa.R1, isa.R2, "l")
	b.Halt()
	c, _ := run(t, b.MustBuild(), nil, 100_000)
	if got := c.ArchReg(isa.R3); got != 10 {
		t.Fatalf("evens = %d, want 10", got)
	}
	if c.Mispredicts == 0 {
		t.Fatal("expected at least one mispredict")
	}
}

func TestSnoopReplayReloads(t *testing.T) {
	// Execute a load, snoop its block before retirement, and check the
	// replayed load observes the new value.
	var now uint64
	fb := newFake(&now)
	fb.mem[0x400] = 1
	b := isa.NewBuilder("snoop")
	b.MovI(isa.R1, 0x400)
	b.Delay(30) // keep the load unretired for a while after it executes
	b.Ld(isa.R3, isa.R1, 0)
	b.Halt()
	c := New(0, DefaultConfig(), b.MustBuild(), [isa.NumRegs]memtypes.Word{}, fb)
	snooped := false
	for now = 1; now < 10_000 && !c.Halted(); now++ {
		c.Tick(now)
		if !snooped && now == 20 {
			// The load has executed (value 1) but the Delay blocks its
			// retirement. An external write arrives:
			fb.mem[0x400] = 2
			if !c.SnoopBlock(memtypes.BlockAddr(0x400)) {
				t.Fatal("snoop found no load to replay")
			}
			snooped = true
		}
	}
	if !c.Halted() {
		t.Fatal("did not halt")
	}
	if got := c.ArchReg(isa.R3); got != 2 {
		t.Fatalf("r3 = %d, want 2 (replayed value)", got)
	}
	if c.Replays == 0 {
		t.Fatal("no replay counted")
	}
}

func TestFlushAllRestoresAndUnhalts(t *testing.T) {
	b := isa.NewBuilder("flush")
	b.MovI(isa.R1, 1)
	b.Halt()
	var now uint64
	fb := newFake(&now)
	c := New(0, DefaultConfig(), b.MustBuild(), [isa.NumRegs]memtypes.Word{}, fb)
	for now = 1; !c.Halted(); now++ {
		c.Tick(now)
	}
	var regs [isa.NumRegs]memtypes.Word
	regs[isa.R1] = 99
	c.FlushAll(regs, 1) // restore at the halt instruction
	if c.Halted() {
		t.Fatal("FlushAll must clear halted (speculative halt rollback)")
	}
	if c.ArchReg(isa.R1) != 99 {
		t.Fatal("registers not restored")
	}
	for ; !c.Halted(); now++ {
		c.Tick(now)
	}
	if c.ArchReg(isa.R1) != 99 {
		t.Fatal("re-execution clobbered restored register")
	}
}

func TestStoreConflictReplay(t *testing.T) {
	// A load issues past an older store with a then-unknown address; when
	// the store's address resolves to the same word, the load replays.
	b := isa.NewBuilder("conflict")
	b.MovI(isa.R1, 0x500)
	b.Ld(isa.R2, isa.R1, 0) // r2 = mem[0x500] (initially 7)
	b.Mul(isa.R3, isa.R2, isa.R2)
	b.Mul(isa.R3, isa.R3, isa.R3) // long dependency chain for the address
	b.MovI(isa.R4, 0x500)
	b.Add(isa.R4, isa.R4, isa.R0)
	b.MovI(isa.R5, 50)
	b.St(isa.R4, 0, isa.R5) // store to 0x500 (addr known late is hard to force; rely on program order)
	b.Ld(isa.R6, isa.R4, 0) // must see 50, by forwarding or replay
	b.St(isa.R1, 8, isa.R6)
	b.Halt()
	_, fb := run(t, b.MustBuild(), func(f *fakeBackend) { f.mem[0x500] = 7 }, 10_000)
	if got := fb.mem[0x508]; got != 50 {
		t.Fatalf("load after store = %d, want 50", got)
	}
}

func TestStoreConflictReplaysPendingMiss(t *testing.T) {
	// The store's data waits on a miss, so its address is unknown when the
	// younger load to the same word issues and misses too. When the store
	// issues, the load's fill is still outstanding and will bring the
	// pre-store word: the load must replay and see the store.
	b := isa.NewBuilder("pending")
	b.MovI(isa.R1, 0x800)
	b.Ld(isa.R2, isa.R1, 0x40) // another block: the store's data
	b.St(isa.R1, 0, isa.R2)
	b.Ld(isa.R3, isa.R1, 0)
	b.Halt()
	c, _ := run(t, b.MustBuild(), func(f *fakeBackend) {
		f.mem[0x840] = 9
		f.missAddrs[memtypes.BlockAddr(0x800)] = true
		f.missAddrs[memtypes.BlockAddr(0x840)] = true
	}, 10_000)
	if got := c.ArchReg(isa.R3); got != 9 {
		t.Fatalf("r3 = %d, want 9 (the older store's data)", got)
	}
	if c.Replays == 0 {
		t.Fatal("no replay counted")
	}
}

func TestROBCapacityStall(t *testing.T) {
	// A pending load miss at the head with a long tail of ALU work: the
	// ROB must fill and fetch must stop, then drain after the fill.
	b := isa.NewBuilder("rob")
	b.MovI(isa.R1, 0x600)
	b.Ld(isa.R2, isa.R1, 0)
	for i := 0; i < 200; i++ {
		b.AddI(isa.R3, isa.R3, 1)
	}
	b.Halt()
	c, _ := run(t, b.MustBuild(), func(f *fakeBackend) {
		f.missAddrs[memtypes.BlockAddr(0x600)] = true
	}, 100_000)
	if got := c.ArchReg(isa.R3); got != 200 {
		t.Fatalf("r3 = %d, want 200", got)
	}
}

// straightLine is a loop-free program: every branch jumps forward.
func straightLine() *isa.Program {
	b := isa.NewBuilder("straight")
	b.MovI(isa.R1, 0x700)
	b.MovI(isa.R2, 5)
	b.AddI(isa.R3, isa.R2, 7)
	b.St(isa.R1, 0, isa.R3)
	b.Ld(isa.R4, isa.R1, 0)
	b.Mul(isa.R5, isa.R4, isa.R2)
	b.MovI(isa.R6, 1)
	b.And(isa.R6, isa.R5, isa.R6)
	b.Bne(isa.R6, isa.R0, "skip")
	b.AddI(isa.R5, isa.R5, 100)
	b.Label("skip")
	b.Sub(isa.R7, isa.R5, isa.R2)
	b.Xor(isa.R8, isa.R7, isa.R3)
	b.St(isa.R1, 8, isa.R8)
	b.Halt()
	return b.MustBuild()
}

func TestROBSizedToProgram(t *testing.T) {
	var now uint64
	cfg := DefaultConfig()
	loopFree := straightLine()
	c := New(0, cfg, loopFree, [isa.NumRegs]memtypes.Word{}, newFake(&now))
	if n := len(loopFree.Instrs); len(c.rob) != n || len(c.pred) != 16 {
		t.Fatalf("loop-free %d-instruction program: %d ROB slots, %d predictor entries; want %d and 16", n, len(c.rob), len(c.pred), n)
	}
	b := isa.NewBuilder("loop")
	b.MovI(isa.R2, 3)
	b.Label("l")
	b.AddI(isa.R2, isa.R2, -1)
	b.Bne(isa.R2, isa.R0, "l")
	b.Halt()
	c = New(0, cfg, b.MustBuild(), [isa.NumRegs]memtypes.Word{}, newFake(&now))
	if len(c.rob) != cfg.ROBSize || len(c.pred) != 4 {
		t.Fatalf("looping program: %d ROB slots, %d predictor entries; want %d and 4", len(c.rob), len(c.pred), cfg.ROBSize)
	}
}

// TestFlushAllBelowHeadRestartsRing rolls a loop-free program back to a
// checkpoint below the ROB head, as an InvisiFence abort does. Its ring
// has one slot per instruction, so the refetch only fits if FlushAll
// restarts the ring at slot 0; the re-executed program must end with the
// reference interpreter's registers.
func TestFlushAllBelowHeadRestartsRing(t *testing.T) {
	prog := straightLine()
	var now uint64
	c := New(0, DefaultConfig(), prog, [isa.NumRegs]memtypes.Word{}, newFake(&now))
	var ckptRegs [isa.NumRegs]memtypes.Word
	ckptPC, flushed := -1, false
	for now = 1; now < 10_000 && !c.Halted(); now++ {
		c.Tick(now)
		switch pc := c.ArchPC(); {
		case ckptPC < 0 && pc >= 3:
			for r := range ckptRegs {
				ckptRegs[r] = c.ArchReg(isa.Reg(r))
			}
			ckptPC = pc
		case !flushed && pc >= 10:
			if c.head <= ckptPC {
				t.Fatalf("head slot %d is not past the checkpoint pc %d", c.head, ckptPC)
			}
			c.FlushAll(ckptRegs, ckptPC)
			flushed = true
		}
		if c.tail > len(c.rob) {
			t.Fatalf("cycle %d: tail slot %d outside the %d-slot ring", now, c.tail, len(c.rob))
		}
	}
	if !flushed || !c.Halted() {
		t.Fatalf("flushed=%v halted=%v", flushed, c.Halted())
	}
	it := isa.NewInterp(prog, [isa.NumRegs]memtypes.Word{}, nil)
	if err := it.Run(1000); err != nil {
		t.Fatal(err)
	}
	for r := range it.Regs {
		if got := c.ArchReg(isa.Reg(r)); got != it.Regs[r] {
			t.Errorf("r%d = %d, want %d", r, got, it.Regs[r])
		}
	}
}

// Registers of randomProgram: data registers, the base address, the
// late-computed address and the loop counter.
var (
	randRegs = []isa.Reg{isa.R1, isa.R2, isa.R3, isa.R4, isa.R5, isa.R6}
	randBase = isa.R10
	randLate = isa.R11
	randCtr  = isa.R12
)

// randomProgram is a random single-thread program over eight words in two
// blocks at 0x1000 (TestIssueNeverLate makes the second block miss): ALU
// chains, loads, stores, atomics and fences on the shared words, forward
// branches, and memory accesses whose address waits on a data register
// (so stores get their address late and younger loads replay). With loop
// set the body runs in a counted loop.
func randomProgram(rng *rand.Rand, loop bool) *isa.Program {
	b := isa.NewBuilder("random")
	reg := func() isa.Reg { return randRegs[rng.Intn(len(randRegs))] }
	off := func() int64 { return int64(8*rng.Intn(4) + 0x40*rng.Intn(2)) }
	b.MovI(randBase, 0x1000)
	if loop {
		b.MovI(randCtr, int64(3+rng.Intn(10)))
		b.Label("top")
	}
	for i, n := 0, 20+rng.Intn(40); i < n; i++ {
		switch rng.Intn(14) {
		case 0:
			b.MovI(reg(), rng.Int63n(16))
		case 1:
			b.Add(reg(), reg(), reg())
		case 2:
			b.AddI(reg(), reg(), rng.Int63n(8))
		case 3:
			b.Mul(reg(), reg(), reg())
		case 4, 5:
			b.Ld(reg(), randBase, off())
		case 6:
			b.St(randBase, off(), reg())
		case 7, 8: // an address known only once a data register is
			b.Mul(randLate, reg(), isa.R0)
			b.Add(randLate, randLate, randBase)
			if rng.Intn(2) == 0 {
				b.St(randLate, off(), reg())
			} else {
				b.Ld(reg(), randLate, off())
			}
		case 9:
			b.Fadd(reg(), randBase, off(), reg())
		case 10:
			if rng.Intn(2) == 0 {
				b.Cas(reg(), randBase, off(), reg(), reg())
			} else {
				b.Swap(reg(), randBase, off(), reg())
			}
		case 11:
			if rng.Intn(2) == 0 {
				b.Fence()
			} else {
				b.Delay(rng.Int63n(6))
			}
		default:
			skip := b.FreshLabel("skip")
			b.Bne(reg(), reg(), skip)
			b.AddI(reg(), reg(), 1)
			b.Label(skip)
		}
	}
	if loop {
		b.AddI(randCtr, randCtr, -1)
		b.Bne(randCtr, isa.R0, "top")
	}
	b.Halt()
	return b.MustBuild()
}

// checkWake checks the core's wake structure against the issue rule, read
// only: every dispatched entry is filed exactly as classifyIssue rates it
// now — ready when it can issue by now, pending until exactly the cycle it
// can, and in neither set when only an event can let it issue. A missing
// or later filing would let the issue walk or NextEvent miss the entry (a
// late wake); an earlier one costs a wasted tick.
func checkWake(t *testing.T, c *Core, seed int64, cycle uint64) {
	t.Helper()
	n := 0
	for i, s := 0, c.head; i < c.count; i, s = i+1, (s+1)%c.cfg.ROBSize {
		e := &c.rob[s]
		if !c.disp.has(s) {
			if e.state == sDispatched || c.ready.has(s) || c.pend.has(s) {
				t.Fatalf("seed %d, cycle %d: slot %d (%v) is dispatched=%v ready=%v pend=%v but not in the dispatched set", seed, cycle, s, *c.instr(e), e.state == sDispatched, c.ready.has(s), c.pend.has(s))
			}
			continue
		}
		n++
		at := c.classifyIssue(e).at
		ready, pend := c.ready.has(s), c.pend.has(s)
		late := at != memtypes.NoEvent && !ready && !(pend && e.wakeAt <= at)
		exact := ready == (at <= c.now) && pend == (at > c.now && at != memtypes.NoEvent) && (!pend || e.wakeAt == at)
		if late || !exact {
			t.Fatalf("seed %d, cycle %d: slot %d (%v, seq %d, age %d) can issue at %d (now %d), but ready=%v pend=%v wakeAt=%d (late=%v)",
				seed, cycle, s, *c.instr(e), e.seq, i, at, c.now, ready, pend, e.wakeAt, late)
		}
	}
	if n != c.nDisp {
		t.Fatalf("seed %d, cycle %d: %d dispatched slots, nDisp %d", seed, cycle, n, c.nDisp)
	}
}

// progress is what a core tick that does anything changes.
type progress struct {
	retired, squashes uint64
	rob, disp, exec   int
}

func progressOf(c *Core) progress {
	d, x := c.IssueProgress()
	return progress{c.Retired, c.Squashes, c.count, d, x}
}

// TestIssueNeverLate runs random looping and loop-free programs — misses,
// retried loads, snoop replays, atomics and stores to shared words, on the
// Figure 6 core and on small ROBs with narrow issue windows — and checks the wake structure against the issue rule before every Tick
// (checkWake), that no tick before the core's hint (NextEvent, or the
// head's ReadyAt) changes its state, and the final registers and memory
// against the reference interpreter.
func TestIssueNeverLate(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := randomProgram(rng, seed%2 == 0)
		var now uint64
		fb := newFake(&now)
		fb.missAddrs[memtypes.BlockAddr(0x1040)] = true
		fb.retryEvery = 5 + rng.Intn(10)
		cfg := DefaultConfig()
		if seed%3 == 0 { // a small ring that wraps often, a narrow window
			cfg.ROBSize, cfg.IssueWindow = 8+rng.Intn(40), 2+rng.Intn(12)
		}
		c := New(0, cfg, prog, [isa.NumRegs]memtypes.Word{}, fb)
		hint := uint64(1)
		for now = 1; now < 100_000 && !c.Halted(); now++ {
			checkWake(t, c, seed, now)
			before := progressOf(c)
			c.Tick(now)
			if now < hint && progressOf(c) != before {
				t.Fatalf("seed %d, cycle %d: the core changed state before its hint %d", seed, now, hint)
			}
			if len(fb.pending) > 0 && rng.Intn(8) == 0 {
				i := rng.Intn(len(fb.pending))
				p := fb.pending[i]
				fb.pending = append(fb.pending[:i], fb.pending[i+1:]...)
				c.FillLoad(p.tag, p.val)
			}
			if rng.Intn(64) == 0 {
				c.SnoopBlock(memtypes.BlockAddr(0x1000 + 0x40*memtypes.Addr(rng.Intn(2))))
			}
			hint = c.NextEvent()
			if hs := c.HeadState(); hs.Valid {
				hint = min(hint, hs.ReadyAt)
			}
		}
		if !c.Halted() {
			t.Fatalf("seed %d: did not halt", seed)
		}
		it := isa.NewInterp(prog, [isa.NumRegs]memtypes.Word{}, nil)
		if err := it.Run(100_000); err != nil {
			t.Fatal(err)
		}
		for r := range it.Regs {
			if got := c.ArchReg(isa.Reg(r)); got != it.Regs[r] {
				t.Fatalf("seed %d: r%d = %d, want %d", seed, r, got, it.Regs[r])
			}
		}
		for a, v := range it.Mem { // order-independent: every word is checked
			if fb.mem[a] != v {
				t.Fatalf("seed %d: mem[%#x] = %d, want %d", seed, a, fb.mem[a], v)
			}
		}
	}
}

// TestROBEntrySize pins the ROB entry's size, which every dispatch writes
// and every litmus-sized run allocates per thread. It is two cache lines
// (128 bytes): the instruction is read from the program, not copied, and
// slots and pcs are 32-bit.
func TestROBEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(robEntry{}); n > 144 {
		t.Fatalf("robEntry is %d bytes, want <= 144", n)
	}
}

// TestCoreSize pins the Core struct, one allocation per simulated thread,
// inside the allocator's 896-byte size class; one byte more would put it
// in the 1,024-byte class.
func TestCoreSize(t *testing.T) {
	if n := unsafe.Sizeof(Core{}); n > 896 {
		t.Fatalf("Core is %d bytes, want <= 896", n)
	}
}
