// Customworkload: author a new multiprocessor workload with the ISA
// builder and synchronization library, then run it under two consistency
// implementations.
//
// The workload is a four-stage software pipeline: each thread owns a stage,
// pops work from its inbox ring, transforms it, and pushes it to the next
// stage's ring under a per-ring lock — a classic producer/consumer pattern
// whose lock fences are exactly what InvisiFence makes free.
//
//	go run ./examples/customworkload
package main

import (
	"fmt"
	"log"

	"invisifence"
	"invisifence/internal/consistency"
	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
	"invisifence/internal/sim"
)

const (
	stages   = 4
	items    = 64
	ringBase = memtypes.Addr(0x40000)
	ringSize = memtypes.Addr(0x1000) // per-stage region
	// Per-ring layout: +0 lock, +8 head, +16 tail, +64.. item slots.
)

func ringAddr(stage int) memtypes.Addr { return ringBase + memtypes.Addr(stage)*ringSize }

// buildStage emits the program for one pipeline stage.
func buildStage(stage int, fp isa.FencePolicy) *isa.Program {
	b := isa.NewBuilder(fmt.Sprintf("stage%d", stage))
	in := ringAddr(stage)
	out := ringAddr((stage + 1) % stages)
	b.MovI(isa.R20, int64(in))
	b.MovI(isa.R21, int64(out))
	b.MovI(isa.R2, 0) // processed count
	b.MovI(isa.R3, items)

	b.Label("loop")
	// Pop from our inbox: lock, check head<tail, read slot, bump head.
	b.Label("retry")
	b.SpinLockBackoff(isa.R20, 0, isa.R10, isa.R11, 8, fp)
	b.Ld(isa.R6, isa.R20, 8)  // head
	b.Ld(isa.R7, isa.R20, 16) // tail
	b.Bltu(isa.R6, isa.R7, "have")
	b.SpinUnlock(isa.R20, 0, fp)
	b.Br("retry")
	b.Label("have")
	b.ShlI(isa.R8, isa.R6, 3)
	b.Add(isa.R8, isa.R20, isa.R8)
	b.Ld(isa.R9, isa.R8, 64) // item value
	b.AddI(isa.R6, isa.R6, 1)
	b.St(isa.R20, 8, isa.R6)
	b.SpinUnlock(isa.R20, 0, fp)

	// Transform: a little compute.
	b.AddI(isa.R9, isa.R9, 1)

	// Final stage retires items instead of forwarding them.
	if stage == stages-1 {
		b.MovI(isa.R13, int64(ringBase)-64) // results cell
		b.Ld(isa.R14, isa.R13, 0)
		b.Add(isa.R14, isa.R14, isa.R9)
		b.St(isa.R13, 0, isa.R14)
	} else {
		// Push to the next stage: lock, append at tail.
		b.SpinLockBackoff(isa.R21, 0, isa.R10, isa.R11, 8, fp)
		b.Ld(isa.R7, isa.R21, 16)
		b.ShlI(isa.R8, isa.R7, 3)
		b.Add(isa.R8, isa.R21, isa.R8)
		b.St(isa.R8, 64, isa.R9)
		b.AddI(isa.R7, isa.R7, 1)
		b.St(isa.R21, 16, isa.R7)
		b.SpinUnlock(isa.R21, 0, fp)
	}
	b.AddI(isa.R2, isa.R2, 1)
	b.Bltu(isa.R2, isa.R3, "loop")
	b.Halt()
	return b.MustBuild()
}

func runPipeline(name string) {
	v, err := invisifence.VariantByName(name)
	if err != nil {
		log.Fatal(err)
	}
	progs := make([]*isa.Program, stages)
	for s := 0; s < stages; s++ {
		progs[s] = buildStage(s, consistency.SyncFences(v.Model))
	}
	// The Figure 6 machine, shrunk to one node per stage.
	m := invisifence.DefaultMachine()
	m.Width, m.Height = 2, 2
	cfg := m.Assemble(v, 0)
	cfg.MaxCycles = 100_000_000
	cfg.WatchdogCycles = 2_000_000
	s := sim.New(cfg, progs, nil)
	// Seed stage 0's inbox with the initial items.
	r0 := ringAddr(0)
	for i := 0; i < items; i++ {
		s.WriteWord(r0+64+memtypes.Addr(i*8), memtypes.Word(i))
	}
	s.WriteWord(r0+16, items) // tail
	res := s.Run()
	if !res.Finished {
		log.Fatalf("%s: pipeline did not finish", name)
	}
	got := s.ReadWord(ringBase - 64)
	// Each item passes 4 stages, +1 each: item i retires as i+4... the
	// last stage only adds the final +1 after three earlier increments.
	want := memtypes.Word(0)
	for i := 0; i < items; i++ {
		want += memtypes.Word(i + stages)
	}
	if got != want {
		log.Fatalf("%s: pipeline result %d, want %d", name, got, want)
	}
	fmt.Printf("%-12s cycles=%9d result=%5d OK\n", name, res.Cycles, got)
}

func main() {
	fmt.Printf("4-stage locked pipeline, %d items (custom workload via the ISA builder)\n\n", items)
	// The SC configurations are omitted: a lock-polling pipeline under
	// SC's retirement rules crawls — which is rather the paper's point
	// about strong models and synchronization-heavy code.
	runPipeline("rmo")
	runPipeline("invisi-rmo")
}
