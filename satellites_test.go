package invisifence

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestTorusForEdgeCases pins the factorization on the shapes sweeps
// actually request: tiny counts, primes (which degenerate to Nx1), and
// large even counts (which must stay as square as possible).
func TestTorusForEdgeCases(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{1, 1, 1},
		{2, 2, 1},
		{3, 3, 1},   // prime
		{5, 5, 1},   // prime
		{13, 13, 1}, // prime
		{97, 97, 1}, // prime
		{6, 3, 2},
		{36, 6, 6},
		{60, 10, 6},
		{64, 8, 8},
		{100, 10, 10},
		{128, 16, 8},
		{1024, 32, 32},
	}
	for _, c := range cases {
		w, h, err := TorusFor(c.n)
		if err != nil {
			t.Fatalf("TorusFor(%d): %v", c.n, err)
		}
		if w*h != c.n {
			t.Errorf("TorusFor(%d) = %dx%d does not cover the node count", c.n, w, h)
		}
		if w != c.w || h != c.h {
			t.Errorf("TorusFor(%d) = %dx%d, want %dx%d", c.n, w, h, c.w, c.h)
		}
		if h > w {
			t.Errorf("TorusFor(%d): height %d exceeds width %d", c.n, h, w)
		}
	}
	for _, bad := range []int{0, -1, -16} {
		if _, _, err := TorusFor(bad); err == nil {
			t.Errorf("TorusFor(%d): expected error", bad)
		}
	}
}

// TestSweepTableZeroCycleGuard pins the degenerate-result rendering: a
// zero-cycle Result (corrupt cache entry, degenerate config) must render
// "-" for IPC, never NaN.
func TestSweepTableZeroCycleGuard(t *testing.T) {
	cfg := DefaultConfig()
	out := &SweepOutcome{Runs: []SweepRun{
		{Config: cfg, Result: Result{Cycles: 0, Retired: 123}},
		{Config: cfg, Result: Result{Cycles: 1000, Retired: 1600}},
	}}
	s := out.Table().String()
	if strings.Contains(s, "NaN") {
		t.Fatalf("table renders NaN:\n%s", s)
	}
	if !strings.Contains(s, "-") {
		t.Fatalf("zero-cycle row does not render '-':\n%s", s)
	}
	if !strings.Contains(s, "0.100") {
		t.Fatalf("healthy row lost its IPC:\n%s", s)
	}
}

// TestRunLitmusDeterministicOutcomes is the regression test for the
// map-iteration histogram bug: RunLitmus builds its outcome list from a
// map, so without canonical sorting, two identical invocations printed the
// histogram in different orders. Two calls must return identical slices,
// sorted by outcome values.
func TestRunLitmusDeterministicOutcomes(t *testing.T) {
	run := func() LitmusResult {
		r, err := RunLitmus("SB", "tso", 12)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if len(a.Outcomes) < 2 {
		t.Fatalf("want a multi-outcome histogram to make ordering meaningful, got %d", len(a.Outcomes))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated RunLitmus calls differ:\n%+v\n%+v", a, b)
	}
	if !sort.SliceIsSorted(a.Outcomes, func(i, j int) bool {
		x, y := a.Outcomes[i].Values, a.Outcomes[j].Values
		for k := range x {
			if x[k] != y[k] {
				return x[k] < y[k]
			}
		}
		return false
	}) {
		t.Fatalf("outcomes not canonically sorted: %+v", a.Outcomes)
	}
}

// TestLinkBandwidthZeroEncodingStable pins the bandwidth-0 invisibility
// guarantee at the serialization layer: a config that never mentions the
// contention knob and a Result from a latency-only run must encode without
// any contention key, so golden results, cached entries, and cache keys
// from before the model existed stay byte-identical (DESIGN.md §10).
func TestLinkBandwidthZeroEncodingStable(t *testing.T) {
	cfg := DefaultConfig()
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(cfgJSON), "LinkBandwidth") {
		t.Errorf("bandwidth-0 Config encodes the contention knob (cache keys drift): %s", cfgJSON)
	}
	key0 := ResultKey(cfg)
	cfg.Machine.LinkBandwidth = 0 // explicit zero: same cell
	if k := ResultKey(cfg); k != key0 {
		t.Errorf("explicit LinkBandwidth 0 changed the cache key: %s vs %s", k, key0)
	}
	cfg.Machine.LinkBandwidth = 4
	if k := ResultKey(cfg); k == key0 {
		t.Error("finite LinkBandwidth did not change the cache key: congested cells would collide with latency-only ones")
	}

	resJSON, err := json.Marshal(Result{Cycles: 1, Validated: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"Messages", "QueueDelayCycles", "LinkBusyCycles", "MaxQueueDepth"} {
		if strings.Contains(string(resJSON), field) {
			t.Errorf("zero-contention Result encodes %q (golden bytes drift): %s", field, resJSON)
		}
	}
}

// TestSweepLinkBandwidthAxis pins the contention axis: link_bandwidths
// expands into per-cell MachineConfig.LinkBandwidth values (distinct cache
// cells), and the default axis keeps the historical single-cell grid.
func TestSweepLinkBandwidthAxis(t *testing.T) {
	spec := SweepSpec{
		Workloads:      []string{"apache"},
		Variants:       []string{"sc"},
		LinkBandwidths: []uint64{0, 4},
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("got %d jobs, want 2 (linkbw axis)", len(jobs))
	}
	if jobs[0].Machine.LinkBandwidth != 0 || jobs[1].Machine.LinkBandwidth != 4 {
		t.Errorf("axis not applied: bandwidths %d, %d", jobs[0].Machine.LinkBandwidth, jobs[1].Machine.LinkBandwidth)
	}
	if ResultKey(jobs[0]) == ResultKey(jobs[1]) {
		t.Error("linkbw axis cells share a cache key")
	}

	plain, err := SweepSpec{Workloads: []string{"apache"}, Variants: []string{"sc"}}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 1 || !reflect.DeepEqual(plain[0], jobs[0]) {
		t.Error("default link-bandwidth axis changed the historical grid")
	}
}
