package workload

import (
	"fmt"

	"invisifence/internal/consistency"
	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
)

// DSS builds the TPC-H-on-DB2 proxy (Figure 7: decision support, query 2):
// every thread streams a slice of a large shared fact table (read-mostly,
// miss-dominated), computes a filtered aggregate with branch-free
// predication, spills partials to private memory, and merges its result
// into a lock-protected global at the end. Synchronization is rare: the
// profile is load misses, not ordering stalls — which is exactly why DSS
// shows small TSO/RMO penalties in Figure 1.
func DSS(p Params) *Workload {
	const (
		rowWords = 2 // key, value
	)
	nRows := 8192
	span := p.scale(2600) // rows scanned per thread
	spill := 32           // spill a partial every N rows

	fp := consistency.SyncFences(p.Model)
	l := newLayout()
	table := l.alloc(nRows * rowWords * memtypes.WordBytes)
	resultLock := l.alloc(memtypes.BlockBytes)
	result := l.alloc(memtypes.BlockBytes)
	done := l.alloc(memtypes.BlockBytes)
	// Partials spill into block-granularity slots of a shared result table
	// (block homes stripe across nodes): every spill is a cold remote store
	// miss, the load-behind-store pattern that penalizes SC (Figure 1).
	partials := make([]memtypes.Addr, p.Cores)
	for t := range partials {
		partials[t] = l.alloc((span/spill + 2) * memtypes.BlockBytes)
	}

	mem := make(map[memtypes.Addr]memtypes.Word)
	rng := newRNG(p, 37)
	keys := make([]memtypes.Word, nRows)
	vals := make([]memtypes.Word, nRows)
	for r := 0; r < nRows; r++ {
		keys[r] = memtypes.Word(rng.Int63n(1 << 16))
		vals[r] = memtypes.Word(rng.Int63n(1 << 10))
		mem[table+memtypes.Addr(w(r*rowWords))] = keys[r]
		mem[table+memtypes.Addr(w(r*rowWords+1))] = vals[r]
	}

	progs := make([]*isa.Program, p.Cores)
	var expected memtypes.Word
	for t := 0; t < p.Cores; t++ {
		start := (t * nRows) / p.Cores
		// Host-side replica of the scan for validation.
		for i := 0; i < span; i++ {
			r := (start + i) % nRows
			expected += vals[r] * (keys[r] & 1)
		}

		b := isa.NewBuilder(fmt.Sprintf("dss-t%d", t))
		b.MovI(isa.R20, int64(table))
		b.MovI(isa.R21, int64(partials[t]))
		b.MovI(isa.R2, 0)            // i
		b.MovI(isa.R3, int64(span))  // bound
		b.MovI(isa.R4, int64(start)) // row cursor
		b.MovI(isa.R5, int64(nRows)) // wrap bound
		b.MovI(isa.R7, 0)            // accumulator
		b.MovI(isa.R17, 0)           // spill slot cursor
		b.Label("scan")
		b.ShlI(isa.R8, isa.R4, 4) // *16 bytes per row
		b.Add(isa.R8, isa.R20, isa.R8)
		b.Ld(isa.R9, isa.R8, 0)     // key
		b.Ld(isa.R12, isa.R8, w(1)) // value
		b.MovI(isa.R13, 1)
		b.And(isa.R13, isa.R9, isa.R13) // predicate bit
		b.Mul(isa.R13, isa.R12, isa.R13)
		b.Add(isa.R7, isa.R7, isa.R13)
		// Advance the cursor with wraparound (branch-free).
		b.AddI(isa.R4, isa.R4, 1)
		b.SltU(isa.R13, isa.R4, isa.R5) // 1 while in range
		b.Mul(isa.R4, isa.R4, isa.R13)  // wraps to 0 at nRows
		// Periodic spill of the running partial (store traffic).
		b.MovI(isa.R13, int64(spill-1))
		b.And(isa.R13, isa.R2, isa.R13)
		b.Bne(isa.R13, isa.R0, "nospill")
		b.ShlI(isa.R14, isa.R17, int64(memtypes.BlockShift))
		b.Add(isa.R14, isa.R21, isa.R14)
		b.St(isa.R14, 0, isa.R7)
		b.AddI(isa.R17, isa.R17, 1)
		b.Label("nospill")
		b.AddI(isa.R2, isa.R2, 1)
		b.Bltu(isa.R2, isa.R3, "scan")

		// Merge into the global aggregate.
		b.MovI(isa.R20, int64(resultLock))
		b.MovI(isa.R21, int64(result))
		b.SpinLockBackoff(isa.R20, 0, isa.R10, isa.R11, 12, fp)
		b.Ld(isa.R8, isa.R21, 0)
		b.Add(isa.R8, isa.R8, isa.R7)
		b.St(isa.R21, 0, isa.R8)
		b.SpinUnlock(isa.R20, 0, fp)
		b.MovI(isa.R19, 1)
		b.MovI(isa.R22, int64(done))
		b.Fadd(isa.R9, isa.R22, 0, isa.R19)
		b.Halt()
		progs[t] = b.MustBuild()
	}

	cores := p.Cores
	return &Workload{
		Name:        "dss-db2",
		Description: "decision support: streaming scan with predicated aggregate, rare sync",
		Programs:    progs,
		RegInit:     regInit(cores),
		MemInit:     mem,
		Validate: func(read func(memtypes.Addr) memtypes.Word) error {
			if got := read(result); got != expected {
				return fmt.Errorf("dss-db2: aggregate = %d, want %d", got, expected)
			}
			if got := read(done); got != memtypes.Word(cores) {
				return fmt.Errorf("dss-db2: done = %d, want %d", got, cores)
			}
			return nil
		},
	}
}
