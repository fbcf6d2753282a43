package crossval

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"invisifence/internal/isa"
)

var update = flag.Bool("update", false, "rewrite testdata/crossval.golden from the current analyzers")

// TestCorpusSound is the acceptance gate: across the full litmus corpus and
// every implementation, the static analyzer never misses a dynamically
// required fence (zero soundness violations, every static set re-verified
// by simulation inside Run), and the classification surfaces at least one
// static-conservative cell — the paper's performance-transparency claim.
func TestCorpusSound(t *testing.T) {
	rep, err := Run(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The full 48-seed table is pinned byte for byte: it is what
	// cmd/staticfence -crossval prints. Regenerate (only with a change
	// that explains every moved cell):
	//
	//	go test ./internal/crossval -run TestCorpusSound -update
	golden := filepath.Join("testdata", "crossval.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(rep.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want, err := os.ReadFile(golden); err != nil {
		t.Fatal(err)
	} else if got := rep.String(); got != string(want) {
		t.Errorf("crossval report differs from %s:\n%s", golden, got)
	}
	if v := rep.Violations(); len(v) != 0 {
		for _, c := range v {
			t.Errorf("soundness violation: %s/%s: %s", c.Test, c.Config, c.Detail)
		}
	}
	counts := rep.Counts()
	if counts[ClassConservative] == 0 {
		t.Error("no static-conservative cells: the dynamic oracle should beat the model somewhere (MP reader side)")
	}
	if counts[ClassMatch] == 0 {
		t.Error("no matching cells")
	}
	// 14 tests x 13 configs, RMW skipped (no canonical target spec).
	if len(rep.Cells) != 182 || counts[ClassSkipped] != 13 {
		t.Errorf("cells=%d skipped=%d, want 182/13", len(rep.Cells), counts[ClassSkipped])
	}

	find := func(test, config string) Cell {
		for _, c := range rep.Cells {
			if c.Test == test && c.Config == config {
				return c
			}
		}
		t.Fatalf("no cell %s/%s", test, config)
		return Cell{}
	}

	// The headline conservative cell: under RMO the delay-set analysis
	// requires MP's reader-side fence (T1@1); the machine's load-queue
	// snooping closes that window, so the dynamic oracle needs only the
	// writer-side fence.
	mp := find("MP", "rmo")
	if mp.Class != ClassConservative {
		t.Errorf("MP/rmo: class %s, want %s", mp.Class, ClassConservative)
	}
	wantStatic := [][]isa.Site{{{Thread: 0, PC: 2}, {Thread: 1, PC: 1}}}
	wantDyn := [][]isa.Site{{{Thread: 0, PC: 2}}}
	if len(mp.StaticMinimal) != 1 || len(mp.StaticMinimal[0]) != 2 ||
		mp.StaticMinimal[0][0] != wantStatic[0][0] || mp.StaticMinimal[0][1] != wantStatic[0][1] {
		t.Errorf("MP/rmo static = %v, want %v", mp.StaticMinimal, wantStatic)
	}
	if len(mp.DynamicMinimal) != 1 || len(mp.DynamicMinimal[0]) != 1 ||
		mp.DynamicMinimal[0][0] != wantDyn[0][0] {
		t.Errorf("MP/rmo dynamic = %v, want %v", mp.DynamicMinimal, wantDyn)
	}

	// And an exact-match cell: SB under TSO needs both st->ld fences in
	// both analyzers.
	sb := find("SB", "tso")
	if sb.Class != ClassMatch || len(sb.StaticMinimal) != 1 || len(sb.StaticMinimal[0]) != 2 {
		t.Errorf("SB/tso: class %s static %v, want match with {T0@2,T1@2}", sb.Class, sb.StaticMinimal)
	}

	// The InvisiFence variants must classify identically to their base
	// model statically (the speculation is invisible to the static side).
	if c := find("MP", "invisi-rmo"); c.Class != ClassConservative {
		t.Errorf("MP/invisi-rmo: class %s, want %s", c.Class, ClassConservative)
	}

	// RC rows. Plain MP under rc relaxes like rmo: the static side needs
	// both fences, the machine only the writer side (load-queue snooping).
	for _, cfg := range []string{"rc", "invisi-rc", "louvre-rc"} {
		if c := find("MP", cfg); c.Class != ClassConservative {
			t.Errorf("MP/%s: class %s, want %s (%s)", cfg, c.Class, ClassConservative, c.Detail)
		}
	}
	// MP-rel-acq under RC: the annotations are the fences — the static
	// delay set must be empty (acquire and release edges are not
	// reorderable) and the machine must agree, with no fence inserted.
	for _, cfg := range []string{"rc", "invisi-rc", "louvre-rc"} {
		c := find("MP-rel-acq", cfg)
		if c.Class != ClassMatch || !c.StaticForbidden || !c.DynamicForbidden {
			t.Errorf("MP-rel-acq/%s: class=%s staticForbidden=%v dynamicForbidden=%v, want match/forbidden/forbidden (%s)",
				cfg, c.Class, c.StaticForbidden, c.DynamicForbidden, c.Detail)
		}
	}
	// ...while under rmo the same program degrades to plain MP: the static
	// side must emit real fence sets (annotations carry no RMO ordering).
	if c := find("MP-rel-acq", "rmo"); c.StaticForbidden {
		t.Errorf("MP-rel-acq/rmo: statically forbidden, but RMO ignores the annotations")
	}
}

// TestReportDeterministic: the crossval table is byte-identical across runs
// (the staticfence-smoke CI contract); restricted to two tests to keep the
// second dynamic search cheap.
func TestReportDeterministic(t *testing.T) {
	opts := Options{Workers: 4, Tests: []string{"MP", "R"}}
	a, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("crossval report not deterministic:\n%s\n---\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "static-conservative") {
		t.Errorf("MP/R crossval should contain a conservative cell:\n%s", a.String())
	}
}

// TestRecycledWorkersMatchOne: litmus runs rebuild pooled systems in place
// (litmus.Harness.RunSeed), so two workers pass recycled machines between
// goroutines. The report must equal the one-worker report, and the sim-race
// CI job runs this under the race detector.
func TestRecycledWorkersMatchOne(t *testing.T) {
	one, err := Run(Options{Workers: 1, Seeds: 16, Tests: []string{"SB", "MP"}})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Run(Options{Workers: 2, Seeds: 16, Tests: []string{"SB", "MP"}})
	if err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Errorf("two-worker report differs from one-worker report:\n%s\n---\n%s", two.String(), one.String())
	}
}
