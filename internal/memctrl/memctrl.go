// Package memctrl models per-node main memory: block-granularity backing
// storage plus the Figure 6 access latency (40 ns = 160 cycles at 4 GHz).
// The directory at each home node consults its local memory controller for
// block reads and writebacks; the controller charges the access latency and
// models bank occupancy as a simple per-bank next-free-cycle schedule.
package memctrl

import (
	"invisifence/internal/memtypes"
)

// Config describes one node's memory controller.
type Config struct {
	AccessLatency uint64 // cycles per access (Figure 6: 160)
	Banks         int    // banks per node (Figure 6: 64)
	BankBusy      uint64 // cycles a bank stays busy per access
}

// DefaultConfig returns the Figure 6 memory parameters.
func DefaultConfig() Config {
	return Config{AccessLatency: 160, Banks: 64, BankBusy: 8}
}

// Memory is the backing store and timing model for one node's share of
// physical memory. Storage is sparse; unwritten blocks read as zero.
type Memory struct {
	cfg      Config
	blocks   map[memtypes.Addr]*memtypes.BlockData
	bankFree []uint64
	// spare holds a rebuilt memory's old blocks, which writes take before
	// they allocate. It is a pointer so that a fresh Memory, which has
	// none, stays in the 80-byte allocation size class (TestMemorySize).
	spare *[]*memtypes.BlockData

	Reads  uint64
	Writes uint64
}

// New creates an empty memory with the given configuration.
func New(cfg Config) *Memory { return new(Memory).Init(cfg) }

// Init empties m for cfg and returns it (DESIGN.md §2). The blocks the last
// run wrote become spares for this run's writes.
func (m *Memory) Init(cfg Config) *Memory {
	if cfg.Banks <= 0 {
		cfg.Banks = 1
	}
	if cfg.AccessLatency == 0 {
		cfg.AccessLatency = 1
	}
	blocks := m.blocks
	if blocks == nil {
		blocks = make(map[memtypes.Addr]*memtypes.BlockData)
	}
	spare := m.spare
	if len(blocks) > 0 && spare == nil {
		spare = new([]*memtypes.BlockData)
	}
	//lint:allow determinism spares are interchangeable storage, cleared when taken
	for _, b := range blocks {
		*spare = append(*spare, b)
	}
	clear(blocks)
	*m = Memory{cfg: cfg, blocks: blocks, spare: spare, bankFree: memtypes.Resize(m.bankFree, cfg.Banks)}
	return m
}

// block returns the storage of the block at ba, adding a zero block when
// none was written yet.
func (m *Memory) block(ba memtypes.Addr) *memtypes.BlockData {
	if b, ok := m.blocks[ba]; ok {
		return b
	}
	var b *memtypes.BlockData
	if s := m.spare; s != nil && len(*s) > 0 {
		b = (*s)[len(*s)-1]
		*s = (*s)[:len(*s)-1]
		*b = memtypes.BlockData{}
	} else {
		b = new(memtypes.BlockData)
	}
	m.blocks[ba] = b
	return b
}

func (m *Memory) bank(a memtypes.Addr) int {
	return int(a>>memtypes.BlockShift) % m.cfg.Banks
}

// AccessDone returns the cycle at which an access issued at cycle now to
// address a completes, accounting for access latency and bank occupancy.
func (m *Memory) AccessDone(now uint64, a memtypes.Addr) uint64 {
	b := m.bank(a)
	start := now
	if m.bankFree[b] > start {
		start = m.bankFree[b]
	}
	m.bankFree[b] = start + m.cfg.BankBusy
	return start + m.cfg.AccessLatency
}

// ReadBlock returns the current contents of the block containing a.
func (m *Memory) ReadBlock(a memtypes.Addr) memtypes.BlockData {
	m.Reads++
	if b, ok := m.blocks[memtypes.BlockAddr(a)]; ok {
		return *b
	}
	return memtypes.BlockData{}
}

// WriteBlock replaces the contents of the block containing a.
func (m *Memory) WriteBlock(a memtypes.Addr, d memtypes.BlockData) {
	m.Writes++
	*m.block(memtypes.BlockAddr(a)) = d
}

// WriteWord updates a single word; used to initialize workload data
// structures before simulation starts.
func (m *Memory) WriteWord(a memtypes.Addr, w memtypes.Word) {
	m.block(memtypes.BlockAddr(a))[memtypes.WordIndex(a)] = w
}

// ReadWord returns a single word; used by tests and by the harness to read
// workload results after simulation ends.
func (m *Memory) ReadWord(a memtypes.Addr) memtypes.Word {
	if b, ok := m.blocks[memtypes.BlockAddr(a)]; ok {
		return b[memtypes.WordIndex(a)]
	}
	return 0
}

// Blocks returns the number of distinct blocks ever written.
func (m *Memory) Blocks() int { return len(m.blocks) }
