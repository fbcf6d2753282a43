package invisifence

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"invisifence/internal/consistency"
	"invisifence/internal/isa"
	"invisifence/internal/litmus"
)

// The litmus corpus pins the memory-model surface of the simulator the way
// golden_test.go pins its cycle-level core: for each corpus test, the full
// outcome histogram of every implementation — unfenced and fenced — is
// written to testdata/litmus/<name>.golden, and the allowed/forbidden
// table below states which implementations are expected to exhibit the
// SC-forbidden target outcome when run unfenced. Any change that shifts a
// single litmus outcome fails here.
//
// Regenerate (only with a PR explaining why every delta is correct):
//
//	go test -run TestLitmusCorpus -update
var updateCorpus = flag.Bool("update", false, "rewrite testdata/litmus goldens from the current simulator")

// corpusSeeds is the sweep width pinned by the goldens. 40 covers ten full
// rotations of the variable-placement sweep (period 4).
const corpusSeeds = 40

// corpusCase is one corpus entry: the litmus test plus its expected
// allowed/forbidden classification per implementation.
type corpusCase struct {
	test string
	// observed lists the implementations whose *unfenced* sweep must
	// exhibit the target outcome (model allows it AND this machine's
	// microarchitecture exposes the window). Every implementation not
	// listed must show zero target runs. Implementations whose model
	// forbids the outcome (SC configs everywhere; TSO configs for
	// load→load / store→store tests) must necessarily be absent here —
	// a target hit there is a coherence bug, which TestLitmusCorpus
	// cross-checks via the suite's own Forbidden predicates.
	observed []string
	// note documents why the allowed-but-unobserved implementations stay
	// clean (microarchitectural windows the machine closes).
	note string
}

// corpusCases is the expected allowed/forbidden table. The weak configs are
// tso/rmo and their InvisiFence counterparts; every SC-model config
// (sc, invisi-sc*, continuous*, aso) must always read as SC.
var corpusCases = []corpusCase{
	{test: "SB", observed: []string{"tso", "rmo", "invisi-tso", "invisi-rmo", "rc", "invisi-rc", "louvre-rc"},
		note: "store buffers delay both stores past both loads"},
	{test: "MP", observed: []string{"rmo", "invisi-rmo", "rc", "invisi-rc", "louvre-rc"},
		note: "coalescing buffer drains flag before data when the data block's home is remote; reader side is closed by load-queue snooping"},
	{test: "LB", observed: nil,
		note: "loads retire in order and stores drain post-retirement, so a load's value can never come from a program-later store"},
	{test: "IRIW", observed: nil,
		note: "writes propagate via a single directory point: no implementation is non-multi-copy-atomic"},
	{test: "CoRR", observed: nil,
		note: "same-address load-load reordering is squashed by load-queue snooping (coherence)"},
	{test: "ISA2", observed: nil,
		note: "the extra hop through T1 gives T0's delayed data store time to complete before T2 reads: the MP-style window closes transitively"},
	{test: "2+2W", observed: []string{"rmo", "invisi-rmo", "rc", "invisi-rc", "louvre-rc"},
		note: "both coalescing buffers drain their second store first"},
	{test: "R", observed: []string{"tso", "rmo", "invisi-tso", "invisi-rmo", "rc", "invisi-rc", "louvre-rc"},
		note: "T1's load bypasses its buffered store of y"},
	{test: "S", observed: nil,
		note: "the write-to-read edge into T1 pins T1's buffered store of x behind the observed load"},
	{test: "MP-rel-acq", observed: []string{"rmo", "invisi-rmo"},
		note: "st.rel/ld.acq degrade to plain st/ld under RMO, reopening the MP window; every RC config must stay clean — the annotations alone carry the ordering"},
	{test: "ISA2-rel-acq", observed: nil,
		note: "as ISA2: the extra hop closes the window even where the model allows it"},
}

// fencedPolicy is the corpus's "fenced" column per config: full fences for
// the fence-based models, acquire/release annotations for RC (its sync
// library emits ld.acq/st.rel instead of fences).
func fencedPolicy(spec litmus.ConfigSpec) isa.FencePolicy {
	if fp := consistency.SyncFences(spec.Model); fp.Synchronizes() {
		return fp
	}
	return isa.RMOFences
}

// corpusTest resolves a corpus entry against the litmus suite.
func corpusTest(t *testing.T, name string) litmus.Test {
	t.Helper()
	for _, tt := range litmus.Tests {
		if tt.Name == name {
			if tt.Target == nil {
				t.Fatalf("corpus test %s has no target outcome", name)
			}
			return tt
		}
	}
	t.Fatalf("corpus test %s not in litmus.Tests", name)
	panic("unreachable")
}

// corpusGoldenPath maps a test name to its golden file.
func corpusGoldenPath(name string) string {
	return filepath.Join("testdata", "litmus", strings.ReplaceAll(name, "+", "p")+".golden")
}

// formatHistogram renders an outcome histogram canonically (sorted by
// outcome value), independent of map iteration order.
func formatHistogram(hist map[litmus.Outcome]int, slots int) string {
	keys := make([]litmus.Outcome, 0, len(hist))
	for o := range hist {
		keys = append(keys, o)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		for k := 0; k < slots; k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	parts := make([]string, len(keys))
	for i, o := range keys {
		vals := make([]string, slots)
		for k := 0; k < slots; k++ {
			vals[k] = fmt.Sprint(o[k])
		}
		parts[i] = fmt.Sprintf("[%s]x%d", strings.Join(vals, " "), hist[o])
	}
	return strings.Join(parts, " ")
}

// corpusReport renders one test's full golden content: per config, the
// unfenced and fenced histograms with target-match counts.
func corpusReport(tt litmus.Test) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# litmus corpus golden: %s seeds=%d target=%v\n", tt.Name, corpusSeeds, tt.Target)
	fmt.Fprintf(&b, "# regenerate: go test -run TestLitmusCorpus -update\n")
	slots := tt.TotalSlots()
	for _, spec := range litmus.AllConfigs() {
		for _, pol := range []struct {
			name string
			fp   isa.FencePolicy
		}{{"unfenced", isa.NoFences}, {"fenced", fencedPolicy(spec)}} {
			h := litmus.HarnessFor(tt, pol.fp)
			hist := h.Sweep(spec, corpusSeeds)
			matches := litmus.CountMatches(hist, tt.Target)
			fmt.Fprintf(&b, "%-16s %-8s target=%-3d %s\n", spec.Name, pol.name, matches, formatHistogram(hist, slots))
		}
	}
	return b.String()
}

// TestLitmusCorpus pins the histograms and checks the allowed/forbidden
// table: unfenced targets appear exactly under the implementations the
// table lists, fenced targets never appear, and no run anywhere violates
// its implementation's consistency model.
func TestLitmusCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep is not -short")
	}
	for _, tc := range corpusCases {
		tc := tc
		t.Run(tc.test, func(t *testing.T) {
			t.Parallel()
			tt := corpusTest(t, tc.test)
			report := corpusReport(tt)
			path := corpusGoldenPath(tc.test)
			if *updateCorpus {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if string(want) != report {
				t.Errorf("histograms drifted from %s (regenerate with -update if intentional):\ngot:\n%swant:\n%s",
					path, report, want)
			}

			observed := make(map[string]bool, len(tc.observed))
			for _, name := range tc.observed {
				observed[name] = true
			}
			for _, spec := range litmus.AllConfigs() {
				// Allowed/forbidden classification on the unfenced sweep.
				h := litmus.HarnessFor(tt, isa.NoFences)
				matches := litmus.CountMatches(h.Sweep(spec, corpusSeeds), tt.Target)
				if observed[spec.Name] && matches == 0 {
					t.Errorf("%s/%s: target %v expected observable unfenced, got 0/%d (%s)",
						tc.test, spec.Name, tt.Target, corpusSeeds, tc.note)
				}
				if !observed[spec.Name] && matches > 0 {
					t.Errorf("%s/%s: target %v expected forbidden/unobserved unfenced, got %d/%d",
						tc.test, spec.Name, tt.Target, matches, corpusSeeds)
				}
				// The model's own Forbidden predicate — the per-model
				// forbidden table, fence-policy aware (e.g. fenced SB still
				// admits [0 0]: release/acquire never orders store→load) —
				// must hold run by run under both policies.
				for _, pol := range []isa.FencePolicy{isa.NoFences, fencedPolicy(spec)} {
					r := litmus.RunWithPolicy(tt, spec, pol, corpusSeeds)
					if len(r.Violations) > 0 {
						t.Errorf("%s/%s: %d model-forbidden outcomes (first %v)",
							tc.test, spec.Name, len(r.Violations), r.Violations[0])
					}
				}
			}
		})
	}
}
