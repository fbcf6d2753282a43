package workload

import (
	"fmt"

	"invisifence/internal/consistency"
	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
)

// Ocean builds the SPLASH-2 Ocean proxy (Figure 7: 1026x1026 grid
// relaxations): red-black Gauss-Seidel sweeps over a row-partitioned
// integer grid. Threads write their own row bands (store bursts) and read
// neighbor boundary rows (producer-consumer sharing), with a global barrier
// between half-sweeps. Integer arithmetic keeps the computation exactly
// reproducible host-side, so validation compares the full final grid.
func Ocean(p Params) *Workload {
	const cols = 32 // words per row (4 blocks)
	rowsPer := 6
	sweeps := p.scale(4)

	rows := p.Cores*rowsPer + 2 // +2 fixed border rows
	fp := consistency.SyncFences(p.Model)
	l := newLayout()
	grid := l.alloc(rows * cols * memtypes.WordBytes)
	barrier := l.alloc(memtypes.BlockBytes)

	mem := make(map[memtypes.Addr]memtypes.Word)
	rng := newRNG(p, 53)
	g := make([][]memtypes.Word, rows)
	for i := 0; i < rows; i++ {
		g[i] = make([]memtypes.Word, cols)
		for j := 0; j < cols; j++ {
			g[i][j] = memtypes.Word(rng.Int63n(1 << 12))
			mem[grid+memtypes.Addr(w(i*cols+j))] = g[i][j]
		}
	}

	rowBytes := int64(cols * memtypes.WordBytes)
	progs := make([]*isa.Program, p.Cores)
	for t := 0; t < p.Cores; t++ {
		firstRow := 1 + t*rowsPer
		b := isa.NewBuilder(fmt.Sprintf("ocean-t%d", t))
		b.MovI(isa.R20, int64(grid))
		b.MovI(isa.R24, int64(barrier))
		b.MovI(isa.R2, 0) // sweep*2 + parity counter
		b.MovI(isa.R3, int64(sweeps*2))

		b.Label("phase")
		b.MovI(isa.R16, 1)
		b.And(isa.R16, isa.R2, isa.R16) // parity of this half-sweep
		b.MovI(isa.R4, int64(firstRow))
		b.MovI(isa.R5, int64(firstRow+rowsPer))
		b.Label("row")
		// j starts at 1 or 2 so that (i + j) % 2 == parity, and steps by 2.
		b.Add(isa.R6, isa.R4, isa.R16)
		b.MovI(isa.R7, 1)
		b.And(isa.R6, isa.R6, isa.R7) // (i+parity)&1
		b.MovI(isa.R7, 2)
		b.Sub(isa.R6, isa.R7, isa.R6) // j0 = 2 - ((i+parity)&1) in {1,2}
		// row base address
		b.MovI(isa.R8, rowBytes)
		b.Mul(isa.R8, isa.R4, isa.R8)
		b.Add(isa.R8, isa.R20, isa.R8)
		b.Label("col")
		b.MovI(isa.R9, int64(cols-1))
		b.Bgeu(isa.R6, isa.R9, "rowdone")
		b.ShlI(isa.R9, isa.R6, 3)
		b.Add(isa.R9, isa.R8, isa.R9)    // &g[i][j]
		b.Ld(isa.R12, isa.R9, -rowBytes) // north
		b.Ld(isa.R13, isa.R9, rowBytes)  // south
		b.Ld(isa.R14, isa.R9, -8)        // west
		b.Ld(isa.R15, isa.R9, 8)         // east
		b.Add(isa.R12, isa.R12, isa.R13)
		b.Add(isa.R12, isa.R12, isa.R14)
		b.Add(isa.R12, isa.R12, isa.R15)
		b.ShrI(isa.R12, isa.R12, 2)
		b.St(isa.R9, 0, isa.R12)
		b.AddI(isa.R6, isa.R6, 2)
		b.Br("col")
		b.Label("rowdone")
		b.AddI(isa.R4, isa.R4, 1)
		b.Bltu(isa.R4, isa.R5, "row")

		b.Barrier(isa.R24, 0, isa.R28, isa.R10, isa.R11, p.Cores, fp)
		b.AddI(isa.R2, isa.R2, 1)
		b.Bltu(isa.R2, isa.R3, "phase")
		b.Halt()
		progs[t] = b.MustBuild()
	}

	// Host-side replica of the identical red-black schedule.
	for ph := 0; ph < sweeps*2; ph++ {
		parity := ph & 1
		next := make([][]memtypes.Word, rows)
		for i := range g {
			next[i] = append([]memtypes.Word(nil), g[i]...)
		}
		for i := 1; i < rows-1; i++ {
			for j := 1; j < cols-1; j++ {
				if (i+j)&1 == parity {
					next[i][j] = (g[i-1][j] + g[i+1][j] + g[i][j-1] + g[i][j+1]) >> 2
				}
			}
		}
		g = next
	}
	// Note: within a half-sweep, red cells only read black cells, so the
	// snapshot copy above matches the in-place simulated update exactly.

	cores := p.Cores
	return &Workload{
		Name:        "ocean",
		Description: "grid relaxation: red-black sweeps, boundary sharing, barriers",
		Programs:    progs,
		RegInit:     regInit(cores),
		MemInit:     mem,
		Validate: func(read func(memtypes.Addr) memtypes.Word) error {
			for i := 1; i < rows-1; i++ {
				for j := 1; j < cols-1; j++ {
					got := read(grid + memtypes.Addr(w(i*cols+j)))
					if got != g[i][j] {
						return fmt.Errorf("ocean: g[%d][%d] = %d, want %d", i, j, got, g[i][j])
					}
				}
			}
			_ = cores
			return nil
		},
	}
}
