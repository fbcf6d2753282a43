// Package workload builds the seven benchmark proxies of Figure 7. The
// paper's commercial workloads (Apache, Zeus, TPC-C on Oracle/DB2, TPC-H on
// DB2) and SPLASH-2 codes (Barnes, Ocean) are proprietary or impractical to
// run in a laptop-scale functional simulator, so each is replaced by a
// kernel with the same memory-ordering-relevant structure: the same kinds
// of sharing (work queues, fine-grained row locks, streaming scans, tree
// walks, stencil boundaries), the same synchronization idioms (spinlocks,
// atomics, barriers, fences per model), and working sets scaled to the
// simulated cache hierarchy. DESIGN.md §1 records the substitution;
// EXPERIMENTS.md records per-figure fidelity.
//
// Every workload validates an end-to-end data invariant after the run
// (conserved balances, exact counter totals, host-replicated checksums), so
// the performance experiments double as whole-system correctness tests of
// the speculation machinery.
package workload

import (
	"fmt"
	"math/rand"

	"invisifence/internal/consistency"
	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
)

// Params configures workload generation.
type Params struct {
	Cores int
	Model consistency.Model
	Seed  int64
	// Scale multiplies the work per run (1.0 = default calibration;
	// benches use less, soak tests more).
	Scale float64
}

func (p Params) scale(n int) int {
	if p.Scale <= 0 {
		return n
	}
	v := int(float64(n) * p.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// Workload is a generated multi-threaded program plus its memory image and
// validation invariant.
type Workload struct {
	Name        string
	Description string // Figure 7-style one-liner
	Programs    []*isa.Program
	RegInit     [][isa.NumRegs]memtypes.Word
	MemInit     map[memtypes.Addr]memtypes.Word
	// Validate checks post-run data invariants through a coherent reader.
	Validate func(read func(memtypes.Addr) memtypes.Word) error
}

// Generator builds a workload for the given parameters.
type Generator func(Params) *Workload

// registry maps workload names to generators, in presentation order.
var registry = []struct {
	name string
	gen  Generator
}{
	{"apache", Apache},
	{"zeus", Zeus},
	{"oltp-oracle", OLTPOracle},
	{"oltp-db2", OLTPDB2},
	{"dss-db2", DSS},
	{"barnes", Barnes},
	{"ocean", Ocean},
}

// Names lists the seven paper workloads in Figure 1/7 order.
func Names() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.name
	}
	return out
}

// Get builds the named workload.
func Get(name string, p Params) (*Workload, error) {
	for _, r := range registry {
		if r.name == name {
			return r.gen(p), nil
		}
	}
	return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
}

// MustGet is Get that panics on unknown names.
func MustGet(name string, p Params) *Workload {
	w, err := Get(name, p)
	if err != nil {
		panic(err)
	}
	return w
}

// layout hands out block-aligned, padded memory regions.
type layout struct{ next memtypes.Addr }

func newLayout() *layout { return &layout{next: 0x100000} }

// alloc reserves a region of at least size bytes, block-aligned, with a
// trailing guard block.
func (l *layout) alloc(size int) memtypes.Addr {
	a := l.next
	blocks := (size + memtypes.BlockBytes - 1) / memtypes.BlockBytes
	l.next += memtypes.Addr((blocks + 1) * memtypes.BlockBytes)
	return a
}

// w is a builder-side shorthand for word offsets.
func w(i int) int64 { return int64(i) * memtypes.WordBytes }

// blockOf returns the address of item i in a one-item-per-block array.
func blockOf(base memtypes.Addr, i int) memtypes.Addr {
	return base + memtypes.Addr(i*memtypes.BlockBytes)
}

// newRNG builds the deterministic generator for host-side layout choices.
func newRNG(p Params, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(p.Seed*1000003 + salt))
}

// regInit builds per-thread initial registers: R1 = thread id.
func regInit(cores int) [][isa.NumRegs]memtypes.Word {
	out := make([][isa.NumRegs]memtypes.Word, cores)
	for t := 0; t < cores; t++ {
		out[t][isa.R1] = memtypes.Word(t)
	}
	return out
}
