package memctrl

import (
	"testing"
	"testing/quick"
	"unsafe"

	"invisifence/internal/memtypes"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(Config{AccessLatency: 10, Banks: 4, BankBusy: 2})
	var d memtypes.BlockData
	d[2] = 99
	m.WriteBlock(0x1000, d)
	got := m.ReadBlock(0x1008) // same block, different word
	if got[2] != 99 {
		t.Fatalf("read = %v", got)
	}
	if m.ReadBlock(0x2000) != (memtypes.BlockData{}) {
		t.Fatal("unwritten block not zero")
	}
}

func TestWordAccessors(t *testing.T) {
	m := New(Config{AccessLatency: 10, Banks: 4, BankBusy: 2})
	m.WriteWord(0x1010, 7)
	m.WriteWord(0x1018, 8)
	if m.ReadWord(0x1010) != 7 || m.ReadWord(0x1018) != 8 {
		t.Fatal("word accessors wrong")
	}
	b := m.ReadBlock(0x1000)
	if b[2] != 7 || b[3] != 8 {
		t.Fatal("word writes not visible in block read")
	}
	if m.Blocks() != 1 {
		t.Fatalf("blocks = %d", m.Blocks())
	}
}

func TestAccessLatencyAndBankOccupancy(t *testing.T) {
	m := New(Config{AccessLatency: 100, Banks: 2, BankBusy: 10})
	// Two back-to-back accesses to the same bank queue up.
	d1 := m.AccessDone(1000, 0x0)  // bank 0
	d2 := m.AccessDone(1000, 0x80) // block 2 -> bank 0 again
	d3 := m.AccessDone(1000, 0x40) // block 1 -> bank 1
	if d1 != 1100 {
		t.Fatalf("d1 = %d", d1)
	}
	if d2 != 1110 {
		t.Fatalf("d2 = %d (bank busy not applied)", d2)
	}
	if d3 != 1100 {
		t.Fatalf("d3 = %d (different bank delayed)", d3)
	}
}

func TestWriteReadQuick(t *testing.T) {
	m := New(DefaultConfig())
	f := func(a uint32, v uint64) bool {
		addr := memtypes.WordAlign(memtypes.Addr(a))
		m.WriteWord(addr, memtypes.Word(v))
		return m.ReadWord(addr) == memtypes.Word(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInitRecyclesBlocks pins a rebuilt memory: it reads as empty, and a
// word written into a block that reuses a spare reads zero beside it.
func TestInitRecyclesBlocks(t *testing.T) {
	cfg := Config{AccessLatency: 10, Banks: 4, BankBusy: 2}
	m := New(cfg)
	var d memtypes.BlockData
	for i := range d {
		d[i] = 7
	}
	m.WriteBlock(0x1000, d)
	m.WriteBlock(0x2000, d)
	m.Init(cfg)
	if m.Blocks() != 0 || m.ReadWord(0x1000) != 0 || m.ReadBlock(0x2000) != (memtypes.BlockData{}) {
		t.Fatal("rebuilt memory still holds the last run's blocks")
	}
	m.WriteWord(0x3008, 5)
	if got := m.ReadBlock(0x3000); got != (memtypes.BlockData{1: 5}) {
		t.Fatalf("word write into a recycled block: block %v", got)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		m.Init(cfg)
		m.WriteBlock(0x1000, d)
		m.WriteWord(0x2000, 1)
	}); allocs != 0 {
		t.Fatalf("rebuild and rewrite of two blocks allocated %v times, want 0", allocs)
	}
}

// TestMemorySize pins Memory in its allocation size class: every fresh
// system allocates one per node.
func TestMemorySize(t *testing.T) {
	if n := unsafe.Sizeof(Memory{}); n > 80 {
		t.Fatalf("Memory is %d bytes, want <= 80", n)
	}
}
