package workload

import (
	"fmt"

	"invisifence/internal/consistency"
	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
)

// Barnes builds the SPLASH-2 Barnes-Hut proxy (Figure 7: 16K bodies): a
// timestep loop alternating a locked tree-update phase (sparse cell locks)
// with a read-mostly tree-traversal force phase over shared cells plus
// private body updates, separated by global barriers. Synchronization is
// infrequent relative to compute, which is why conventional RMO shows
// almost no ordering stalls on it (Figure 1).
func Barnes(p Params) *Workload {
	const (
		nCells    = 128
		pathLen   = 6
		lockEvery = 8 // 1 in 8 bodies does a locked cell update per step
	)
	bodiesPer := p.scale(24)
	steps := 3

	fp := consistency.SyncFences(p.Model)
	l := newLayout()
	// Cell block layout: +0 lock, +8 mass, +16 touches.
	cells := l.alloc(nCells * memtypes.BlockBytes)
	barrier := l.alloc(memtypes.BlockBytes)
	bodies := make([]memtypes.Addr, p.Cores)  // body block: +0 pos, +8 vel
	paths := make([]memtypes.Addr, p.Cores)   // per body: pathLen cell indexes
	cellSel := make([]memtypes.Addr, p.Cores) // per body per step: cell to update
	for t := range bodies {
		bodies[t] = l.alloc(bodiesPer * memtypes.BlockBytes)
		paths[t] = l.alloc(bodiesPer * pathLen * memtypes.WordBytes)
		cellSel[t] = l.alloc(bodiesPer * steps * memtypes.WordBytes)
	}

	mem := make(map[memtypes.Addr]memtypes.Word)
	rng := newRNG(p, 41)
	pathIdx := make([][][]int, p.Cores)
	selIdx := make([][][]int, p.Cores)
	for t := 0; t < p.Cores; t++ {
		pathIdx[t] = make([][]int, bodiesPer)
		selIdx[t] = make([][]int, bodiesPer)
		for bdy := 0; bdy < bodiesPer; bdy++ {
			pathIdx[t][bdy] = make([]int, pathLen)
			for k := 0; k < pathLen; k++ {
				c := rng.Intn(nCells)
				pathIdx[t][bdy][k] = c
				mem[paths[t]+memtypes.Addr(w(bdy*pathLen+k))] = memtypes.Word(c)
			}
			selIdx[t][bdy] = make([]int, steps)
			for s := 0; s < steps; s++ {
				c := rng.Intn(nCells)
				selIdx[t][bdy][s] = c
				mem[cellSel[t]+memtypes.Addr(w(bdy*steps+s))] = memtypes.Word(c)
			}
		}
	}

	progs := make([]*isa.Program, p.Cores)
	for t := 0; t < p.Cores; t++ {
		b := isa.NewBuilder(fmt.Sprintf("barnes-t%d", t))
		b.MovI(isa.R20, int64(cells))
		b.MovI(isa.R21, int64(bodies[t]))
		b.MovI(isa.R22, int64(paths[t]))
		b.MovI(isa.R23, int64(cellSel[t]))
		b.MovI(isa.R24, int64(barrier))
		b.MovI(isa.R2, 0) // step
		b.MovI(isa.R3, int64(steps))
		// R28 = barrier sense (zero-initialized).

		b.Label("step")
		// Phase 1: sparse locked cell updates (tree build/refresh).
		b.MovI(isa.R4, 0) // body
		b.MovI(isa.R5, int64(bodiesPer))
		b.Label("build")
		b.MovI(isa.R6, int64(lockEvery-1))
		b.And(isa.R6, isa.R4, isa.R6)
		b.Bne(isa.R6, isa.R0, "skiplock")
		// cell = cellSel[body*steps + step]
		b.MovI(isa.R6, int64(steps))
		b.Mul(isa.R7, isa.R4, isa.R6)
		b.Add(isa.R7, isa.R7, isa.R2)
		b.ShlI(isa.R7, isa.R7, 3)
		b.Add(isa.R7, isa.R23, isa.R7)
		b.Ld(isa.R8, isa.R7, 0) // cell index
		b.ShlI(isa.R8, isa.R8, int64(memtypes.BlockShift))
		b.Add(isa.R8, isa.R20, isa.R8) // cell block
		b.SpinLockBackoff(isa.R8, 0, isa.R10, isa.R11, 48, fp)
		b.Ld(isa.R9, isa.R8, w(1))
		b.Add(isa.R9, isa.R9, isa.R4)
		b.AddI(isa.R9, isa.R9, 1)
		b.St(isa.R8, w(1), isa.R9)
		b.Ld(isa.R9, isa.R8, w(2))
		b.AddI(isa.R9, isa.R9, 1)
		b.St(isa.R8, w(2), isa.R9)
		b.SpinUnlock(isa.R8, 0, fp)
		b.Label("skiplock")
		b.AddI(isa.R4, isa.R4, 1)
		b.Bltu(isa.R4, isa.R5, "build")

		b.Barrier(isa.R24, 0, isa.R28, isa.R10, isa.R11, p.Cores, fp)

		// Phase 2: force computation — read the body's cell path, update
		// the private body block.
		b.MovI(isa.R4, 0)
		b.Label("force")
		b.MovI(isa.R9, 0) // accumulated "force"
		b.MovI(isa.R6, int64(pathLen))
		b.Mul(isa.R7, isa.R4, isa.R6)
		b.ShlI(isa.R7, isa.R7, 3)
		b.Add(isa.R7, isa.R22, isa.R7) // path base
		b.MovI(isa.R12, 0)             // k
		b.Label("walk")
		b.ShlI(isa.R13, isa.R12, 3)
		b.Add(isa.R13, isa.R7, isa.R13)
		b.Ld(isa.R14, isa.R13, 0) // cell index
		b.ShlI(isa.R14, isa.R14, int64(memtypes.BlockShift))
		b.Add(isa.R14, isa.R20, isa.R14)
		b.Ld(isa.R15, isa.R14, w(1)) // cell mass
		b.Add(isa.R9, isa.R9, isa.R15)
		b.AddI(isa.R12, isa.R12, 1)
		b.Bltu(isa.R12, isa.R6, "walk")
		// Private body update.
		b.ShlI(isa.R13, isa.R4, int64(memtypes.BlockShift))
		b.Add(isa.R13, isa.R21, isa.R13)
		b.Ld(isa.R15, isa.R13, 0)
		b.Add(isa.R15, isa.R15, isa.R9)
		b.St(isa.R13, 0, isa.R15)
		b.St(isa.R13, w(1), isa.R9)
		b.AddI(isa.R4, isa.R4, 1)
		b.Bltu(isa.R4, isa.R5, "force")

		b.Barrier(isa.R24, 0, isa.R28, isa.R10, isa.R11, p.Cores, fp)
		b.AddI(isa.R2, isa.R2, 1)
		b.Bltu(isa.R2, isa.R3, "step")
		b.Halt()
		progs[t] = b.MustBuild()
	}

	// Host-side replica: cell masses evolve deterministically per step
	// (locked adds commute within a phase; barriers order phases).
	expMass := make([]memtypes.Word, nCells)
	expTouch := make([]memtypes.Word, nCells)
	expPos := make([][]memtypes.Word, p.Cores)
	for t := range expPos {
		expPos[t] = make([]memtypes.Word, bodiesPer)
	}
	for s := 0; s < steps; s++ {
		for t := 0; t < p.Cores; t++ {
			for bdy := 0; bdy < bodiesPer; bdy++ {
				if bdy%lockEvery == 0 {
					c := selIdx[t][bdy][s]
					expMass[c] += memtypes.Word(bdy) + 1
					expTouch[c]++
				}
			}
		}
		for t := 0; t < p.Cores; t++ {
			for bdy := 0; bdy < bodiesPer; bdy++ {
				var force memtypes.Word
				for _, c := range pathIdx[t][bdy] {
					force += expMass[c]
				}
				expPos[t][bdy] += force
			}
		}
	}

	cores := p.Cores
	return &Workload{
		Name:        "barnes",
		Description: "n-body: sparse locked tree updates, read-mostly traversals, barriers",
		Programs:    progs,
		RegInit:     regInit(cores),
		MemInit:     mem,
		Validate: func(read func(memtypes.Addr) memtypes.Word) error {
			for c := 0; c < nCells; c++ {
				base := blockOf(cells, c)
				if got := read(base + memtypes.Addr(w(1))); got != expMass[c] {
					return fmt.Errorf("barnes: cell %d mass = %d, want %d", c, got, expMass[c])
				}
				if got := read(base + memtypes.Addr(w(2))); got != expTouch[c] {
					return fmt.Errorf("barnes: cell %d touches = %d, want %d", c, got, expTouch[c])
				}
			}
			for t := 0; t < cores; t++ {
				for bdy := 0; bdy < bodiesPer; bdy++ {
					a := blockOf(bodies[t], bdy)
					if got := read(a); got != expPos[t][bdy] {
						return fmt.Errorf("barnes: body %d/%d pos = %d, want %d", t, bdy, got, expPos[t][bdy])
					}
				}
			}
			return nil
		},
	}
}
