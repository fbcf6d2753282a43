package litmus

import (
	"reflect"
	"testing"

	"invisifence/internal/consistency"
	"invisifence/internal/isa"
)

// prefixed builds seed's per-node programs of h through isa.InsertBefore,
// the reference the rig's in-place assembly must reproduce: a start-skew
// delay when the skew is nonzero, then R4 = the rotated shared-variable
// base and R5 = the result base, all inserted at pc 0; idle nodes halt.
func prefixed(t *testing.T, h Harness, seed int64) []*isa.Program {
	t.Helper()
	progs := make([]*isa.Program, nodes)
	for i := range progs {
		if i >= len(h.Bodies) {
			progs[i] = haltProgram
			continue
		}
		var prefix []isa.Insertion
		if skew := (seed*7 + int64(i)*13) % 40; skew > 0 {
			prefix = append(prefix, isa.Insertion{PC: 0, In: isa.Instr{Op: isa.Delay, Imm: skew}})
		}
		prefix = append(prefix,
			isa.Insertion{PC: 0, In: isa.Instr{Op: isa.MovI, Rd: isa.R4, Imm: int64(varsBase(seed))}},
			isa.Insertion{PC: 0, In: isa.Instr{Op: isa.MovI, Rd: isa.R5, Imm: int64(resultsAddr)}},
		)
		p, err := isa.InsertBefore(h.Bodies[i], prefix)
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = p
	}
	return progs
}

// checkAssembly fails unless h.machine assembles, into r, the instructions
// prefixed builds for every node and seeds 0-39, and returns how many
// branches with a target at pc 0 and past it the bodies hold.
func checkAssembly(t *testing.T, r *rig, h Harness) (toStart, past int) {
	t.Helper()
	spec := AllConfigs()[0]
	for seed := int64(0); seed < 40; seed++ {
		h.machine(r, spec, seed)
		want := prefixed(t, h, seed)
		for i, p := range r.progs {
			if i >= len(h.Bodies) {
				if p != haltProgram {
					t.Errorf("%s seed %d: idle node %d does not run the halt program", h.Name, seed, i)
				}
				continue
			}
			if !reflect.DeepEqual(p.Instrs, want[i].Instrs) {
				t.Fatalf("%s seed %d thread %d: assembled\n%v\nInsertBefore\n%v", h.Name, seed, i, p.Instrs, want[i].Instrs)
			}
		}
	}
	for _, b := range h.Bodies {
		for _, in := range b.Instrs {
			switch {
			case !in.Op.IsBranch():
			case in.Target == 0:
				toStart++
			default:
				past++
			}
		}
	}
	return toStart, past
}

// TestAssembleMatchesInsertBefore pins the rig's in-place program assembly
// to isa.InsertBefore: every corpus test unfenced and under each model's
// synchronization fences, a body with fences inserted, and a looping body
// whose branches target pc 0 (which stays 0) and later pcs (which move
// past the prefix). One rig assembles them all, so programs of every
// length overwrite each other's buffers.
func TestAssembleMatchesInsertBefore(t *testing.T) {
	r := new(rig)
	policies := []isa.FencePolicy{isa.NoFences}
	for _, m := range consistency.Models {
		policies = append(policies, consistency.SyncFences(m))
	}
	for _, tt := range Tests {
		for _, fp := range policies {
			checkAssembly(t, r, HarnessFor(tt, fp))
		}
	}

	fenced := HarnessFor(Tests[0], isa.NoFences)
	for i, b := range fenced.Bodies {
		p, err := isa.InsertFences(b, []int{0, 1, b.Len() - 1})
		if err != nil {
			t.Fatal(err)
		}
		fenced.Bodies[i] = p
	}
	checkAssembly(t, r, fenced)

	b := isa.NewBuilder("loop")
	b.Label("top")
	b.AddI(isa.R6, isa.R6, 1)
	b.Beq(isa.R6, isa.R0, "done")
	b.Ld(isa.R7, isa.R4, varOff(0))
	b.Beq(isa.R7, isa.R0, "top")
	b.Label("done")
	b.St(isa.R5, resOff(0), isa.R7)
	b.Halt()
	loop := b.MustBuild()
	toStart, past := checkAssembly(t, r, Harness{Name: "loop", Slots: 1, Bodies: []*isa.Program{loop, loop, loop}})
	if toStart == 0 || past == 0 {
		t.Fatalf("looping bodies have %d branches to pc 0 and %d past it, want some of each", toStart, past)
	}
}
