package litmus

import (
	"reflect"
	"testing"

	"invisifence/internal/consistency"
	"invisifence/internal/isa"
	"invisifence/internal/sim"
)

// runBoth runs one seed of h on the recycled rig, with the programs
// assembled in place, and on a fresh sim.New system running the programs
// isa.InsertBefore builds, and fails unless the outcome, the Result
// (PerNode statistics included) and the runner telemetry are deeply equal.
func runBoth(t *testing.T, recycled *rig, h Harness, spec ConfigSpec, seed int64) sim.Result {
	t.Helper()
	cfg := h.machine(recycled, spec, seed)
	got := recycled.sys.Init(cfg, recycled.progs[:], nil).Run()
	gotOut, gotStats := h.outcome(&recycled.sys, seed), recycled.sys.RunnerStats()
	fresh := sim.New(cfg, prefixed(t, h, seed), nil)
	want := fresh.Run()
	if !want.Finished {
		t.Fatalf("%s/%s seed %d did not finish", h.Name, spec.Name, seed)
	}
	if wantOut := h.outcome(fresh, seed); gotOut != wantOut {
		t.Errorf("%s/%s seed %d: recycled outcome %v, fresh %v", h.Name, spec.Name, seed, gotOut, wantOut)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s/%s seed %d: recycled Result differs from fresh:\n got %+v\nwant %+v", h.Name, spec.Name, seed, got, want)
	}
	if gotStats != fresh.RunnerStats() {
		t.Errorf("%s/%s seed %d: recycled runner stats %+v, fresh %+v", h.Name, spec.Name, seed, gotStats, fresh.RunnerStats())
	}
	return want
}

// TestRecycledMachineMatchesFresh pins the one construction path: a rig's
// System rebuilt in place after any other run, with its programs assembled
// over the last run's, behaves exactly like a freshly built one. One rig
// runs every corpus test under all implementations and seeds 0-7,
// interleaved so that consecutive runs change the implementation — FIFO
// and coalescing store buffers, one, two and four checkpoints, engine
// modes — the test, the seed and the jitter bound.
func TestRecycledMachineMatchesFresh(t *testing.T) {
	configs := AllConfigs()
	recycled := new(rig)
	for seed := int64(0); seed < 8; seed++ {
		for ti, tt := range Tests {
			for ci := range configs {
				spec := configs[(ci+ti+int(seed))%len(configs)]
				h := HarnessFor(tt, consistency.SyncFences(spec.Model))
				if (ci+ti)%3 == 0 {
					h.Jitter = 40 // the fence-search oracle's wider bound
				}
				runBoth(t, recycled, h, spec, seed)
			}
		}
	}

	// A run long enough to read past the shared jitter prefix, then the
	// same run again on the rebuilt system: the private generator must
	// restart from the seed, not continue. The loop, with a branch it never
	// takes, leaves trained predictor counters and a full-size ROB ring
	// behind for the rebuild to reset.
	h := Harness{Name: "pingpong", Finals: []int{0, 1}, Bodies: make([]*isa.Program, 4)}
	for i := range h.Bodies {
		b := isa.NewBuilder("pingpong")
		b.MovI(isa.R6, int64(i+1))
		b.MovI(isa.R7, 6)
		b.Label("loop")
		b.Beq(isa.R6, isa.R0, "done")
		b.AddI(isa.R7, isa.R7, -1)
		b.Bne(isa.R7, isa.R0, "loop")
		b.Label("done")
		for v := 0; v < 40; v++ {
			b.St(isa.R4, varOff(v), isa.R6)
		}
		b.Halt()
		h.Bodies[i] = b.MustBuild()
	}
	spec := configs[0]
	for range 2 {
		// Every fill from another node is at least a request and a reply,
		// each one jitter draw.
		if r := runBoth(t, recycled, h, spec, 3); 2*r.RemoteFills <= 256 {
			t.Fatalf("pingpong run made %d remote fills, want more than 128 to pass the jitter prefix", r.RemoteFills)
		}
	}
}
