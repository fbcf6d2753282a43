package staticfence

import (
	"strings"
	"testing"

	"invisifence/internal/consistency"
	"invisifence/internal/isa"
	"invisifence/internal/litmus"
)

func analyze(t *testing.T, name string, m consistency.Model) *Result {
	t.Helper()
	for _, lt := range litmus.Tests {
		if lt.Name == name {
			r, err := Analyze(name, litmus.BodyPrograms(lt, isa.NoFences), m, LitmusLayout())
			if err != nil {
				t.Fatalf("Analyze(%s, %v): %v", name, m, err)
			}
			return r
		}
	}
	t.Fatalf("unknown litmus test %q", name)
	return nil
}

func sitesEqual(a, b [][]isa.Site) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestExpectations pins the hand-computed delay-set answer for every corpus
// test under every conventional model. nil means statically already
// forbidden (empty delay set).
func TestExpectations(t *testing.T) {
	cases := []struct {
		test  string
		model consistency.Model
		want  [][]isa.Site
	}{
		{"SB", consistency.SC, nil},
		{"SB", consistency.TSO, [][]isa.Site{{{Thread: 0, PC: 2}, {Thread: 1, PC: 2}}}},
		{"SB", consistency.RMO, [][]isa.Site{{{Thread: 0, PC: 2}, {Thread: 1, PC: 2}}}},

		{"MP", consistency.SC, nil},
		{"MP", consistency.TSO, nil},
		// The headline conservative cell: static analysis requires the
		// reader-side fence (T1@1) under RMO; the machine's load-queue
		// snooping makes it dynamically unnecessary (fencesearch pins
		// {{T0@2}} only).
		{"MP", consistency.RMO, [][]isa.Site{{{Thread: 0, PC: 2}, {Thread: 1, PC: 1}}}},

		{"LB", consistency.SC, nil},
		{"LB", consistency.TSO, nil},
		{"LB", consistency.RMO, [][]isa.Site{{{Thread: 0, PC: 2}, {Thread: 1, PC: 2}}}},

		{"IRIW", consistency.SC, nil},
		{"IRIW", consistency.TSO, nil},
		{"IRIW", consistency.RMO, [][]isa.Site{{{Thread: 2, PC: 1}, {Thread: 3, PC: 1}}}},

		// The body's own fence separates the store/load pair: forbidden
		// under every model with no further fences.
		{"SB+F", consistency.SC, nil},
		{"SB+F", consistency.TSO, nil},
		{"SB+F", consistency.RMO, nil},

		{"WRC", consistency.TSO, nil},
		{"WRC", consistency.RMO, [][]isa.Site{{{Thread: 1, PC: 1}, {Thread: 2, PC: 1}}}},

		// Same-address pairs are coherence-ordered: no delay under any
		// model.
		{"CoRR", consistency.SC, nil},
		{"CoRR", consistency.TSO, nil},
		{"CoRR", consistency.RMO, nil},

		// Two conflicting atomics, no po edge between shared accesses in
		// either thread: no critical cycle at all.
		{"RMW", consistency.RMO, nil},

		{"ISA2", consistency.TSO, nil},
		{"ISA2", consistency.RMO, [][]isa.Site{{{Thread: 0, PC: 2}, {Thread: 1, PC: 1}, {Thread: 2, PC: 1}}}},

		{"2+2W", consistency.SC, nil},
		{"2+2W", consistency.TSO, nil},
		{"2+2W", consistency.RMO, [][]isa.Site{{{Thread: 0, PC: 3}, {Thread: 1, PC: 3}}}},

		{"R", consistency.SC, nil},
		{"R", consistency.TSO, [][]isa.Site{{{Thread: 1, PC: 2}}}},
		{"R", consistency.RMO, [][]isa.Site{{{Thread: 0, PC: 2}, {Thread: 1, PC: 2}}}},

		{"S", consistency.TSO, nil},
		{"S", consistency.RMO, [][]isa.Site{{{Thread: 0, PC: 3}, {Thread: 1, PC: 2}}}},
	}
	for _, c := range cases {
		r := analyze(t, c.test, c.model)
		if c.want == nil {
			if !r.AlreadyForbidden() {
				t.Errorf("%s/%v: want statically forbidden, got delays %v minimal %v", c.test, c.model, r.Delays, r.Minimal)
			}
			continue
		}
		if r.AlreadyForbidden() {
			t.Errorf("%s/%v: want minimal %v, got statically forbidden", c.test, c.model, c.want)
			continue
		}
		if !sitesEqual(r.Minimal, c.want) {
			t.Errorf("%s/%v: minimal = %v, want %v", c.test, c.model, r.Minimal, c.want)
		}
	}
}

// TestMinimalCoversAreMinimalAndSufficient checks the cover family's
// internal contract on every (test, model) cell: each cover cuts all delay
// edges and no single-site removal still does.
func TestMinimalCoversAreMinimalAndSufficient(t *testing.T) {
	models := []consistency.Model{consistency.SC, consistency.TSO, consistency.RMO}
	for _, lt := range litmus.Tests {
		for _, m := range models {
			r := analyze(t, lt.Name, m)
			if r.Sufficient(nil) != r.AlreadyForbidden() {
				// nil is sufficient iff there are no delay edges.
				t.Errorf("%s/%v: Sufficient(nil)=%v with %d delays", lt.Name, m, r.Sufficient(nil), len(r.Delays))
			}
			for _, set := range r.Minimal {
				if !r.Sufficient(set) {
					t.Errorf("%s/%v: minimal set %v does not cover delays %v", lt.Name, m, set, r.Delays)
				}
				for i := range set {
					reduced := append(append([]isa.Site(nil), set[:i]...), set[i+1:]...)
					if r.Sufficient(reduced) {
						t.Errorf("%s/%v: set %v is not minimal (%v suffices)", lt.Name, m, set, reduced)
					}
				}
			}
		}
	}
}

// TestWalkSites pins the pruning surface on R/tso: the dynamic search's
// pinned answers include {T0@2} — a site cutting a critical-cycle po edge
// that tso does *not* relax — so WalkSites must keep every cycle-cutting
// site, not just delay-cutting ones, while dropping sites off every cycle
// (T1@3 precedes only the private result store).
func TestWalkSites(t *testing.T) {
	r := analyze(t, "R", consistency.TSO)
	got := map[isa.Site]bool{}
	for _, s := range r.WalkSites() {
		got[s] = true
	}
	for _, want := range []isa.Site{{Thread: 0, PC: 2}, {Thread: 1, PC: 2}} {
		if !got[want] {
			t.Errorf("R/tso: WalkSites missing %v (got %v)", want, r.WalkSites())
		}
	}
	if got[isa.Site{Thread: 1, PC: 3}] {
		t.Errorf("R/tso: WalkSites includes T1@3, which cuts no critical-cycle pair")
	}
	// MP: only T0@2 and T1@1 touch the cycle; T1@2 and T1@3 guard result
	// stores only.
	r = analyze(t, "MP", consistency.RMO)
	ws := r.WalkSites()
	if len(ws) != 2 || ws[0] != (isa.Site{Thread: 0, PC: 2}) || ws[1] != (isa.Site{Thread: 1, PC: 1}) {
		t.Errorf("MP/rmo: WalkSites = %v, want [T0@2 T1@1]", ws)
	}
}

// TestBuildGraphRefusals: the analysis must refuse programs outside its
// sound fragment rather than analyze them optimistically.
func TestBuildGraphRefusals(t *testing.T) {
	// Branches.
	b := isa.NewBuilder("loop")
	b.Label("top")
	b.Ld(isa.R7, litmus.VarsReg, 0)
	b.Bne(isa.R7, isa.R0, "top")
	b.Halt()
	if _, err := BuildGraph("loop", []*isa.Program{b.MustBuild()}, LitmusLayout()); err == nil {
		t.Error("BuildGraph accepted a branching body")
	}
	// Unknown base register.
	b = isa.NewBuilder("alias")
	b.Ld(isa.R7, isa.R9, 0)
	b.Halt()
	if _, err := BuildGraph("alias", []*isa.Program{b.MustBuild()}, LitmusLayout()); err == nil {
		t.Error("BuildGraph accepted an unknown base register")
	}
	// Off-stride shared offset.
	b = isa.NewBuilder("stride")
	b.Ld(isa.R7, litmus.VarsReg, 4)
	b.Halt()
	if _, err := BuildGraph("stride", []*isa.Program{b.MustBuild()}, LitmusLayout()); err == nil {
		t.Error("BuildGraph accepted an off-stride shared offset")
	}
	// Result slot shared by two threads.
	mk := func() *isa.Program {
		b := isa.NewBuilder("shared-result")
		b.St(litmus.ResultsReg, 0, isa.R6)
		b.Halt()
		return b.MustBuild()
	}
	if _, err := BuildGraph("shared-result", []*isa.Program{mk(), mk()}, LitmusLayout()); err == nil {
		t.Error("BuildGraph accepted a result slot written by two threads")
	}
}

// TestReportDeterministic: two independent analyses render byte-identical
// reports (the staticfence-smoke CI contract).
func TestReportDeterministic(t *testing.T) {
	for _, lt := range litmus.Tests {
		for _, m := range []consistency.Model{consistency.SC, consistency.TSO, consistency.RMO} {
			a := analyze(t, lt.Name, m).Report()
			b := analyze(t, lt.Name, m).Report()
			if a != b {
				t.Errorf("%s/%v: report not deterministic:\n%s\n---\n%s", lt.Name, m, a, b)
			}
			if !strings.Contains(a, "staticfence: "+lt.Name) {
				t.Errorf("%s/%v: report missing header: %q", lt.Name, m, a)
			}
		}
	}
}

// TestCycleShapes spot-checks the enumerator: SB has exactly one critical
// cycle (the 4-event Dekker cycle), and its po edges are the two st->ld
// pairs.
func TestCycleShapes(t *testing.T) {
	r := analyze(t, "SB", consistency.SC)
	if len(r.Cycles) != 1 {
		t.Fatalf("SB: %d critical cycles, want 1:\n%s", len(r.Cycles), r.Report())
	}
	c := r.Cycles[0]
	if len(c.PO) != 2 || len(c.Events) != 4 {
		t.Fatalf("SB cycle shape: %d events, %d po edges (%v)", len(c.Events), len(c.PO), c)
	}
	for _, e := range c.PO {
		if e.From.Class != consistency.Store || e.To.Class != consistency.Load {
			t.Errorf("SB po edge %v: want st->ld", e)
		}
	}
	// IRIW: the single 6-event cycle through both readers.
	r = analyze(t, "IRIW", consistency.SC)
	if len(r.Cycles) != 1 || len(r.Cycles[0].Events) != 6 {
		t.Errorf("IRIW cycles: %v", r.Cycles)
	}
}
