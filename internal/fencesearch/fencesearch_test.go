package fencesearch

import (
	"reflect"
	"testing"

	"invisifence/internal/isa"
	"invisifence/internal/litmus"
	"invisifence/internal/runcache"
)

func search(t testing.TB, test string, configs []string, opts Options) *Result {
	t.Helper()
	res, err := Search(Query{Test: test, Configs: configs}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestKnownMinimalSets pins the acceptance answers: the search must find
// the known-minimal fence sets for MP and SB under the weakest model.
func TestKnownMinimalSets(t *testing.T) {
	cases := []struct {
		test, config string
		want         [][]isa.Site
	}{
		// MP under RMO: only the writer-side fence (before the flag store)
		// is needed — the reader side is closed by load-queue snooping,
		// which squashes and replays any in-window load whose block is
		// invalidated, so in-order retirement forbids load-load reordering.
		{"MP", "rmo", [][]isa.Site{{{Thread: 0, PC: 2}}}},
		{"MP", "invisi-rmo", [][]isa.Site{{{Thread: 0, PC: 2}}}},
		// SB under RMO: the classic pair — a full fence between each
		// thread's store and its load. No single fence suffices.
		{"SB", "rmo", [][]isa.Site{{{Thread: 0, PC: 2}, {Thread: 1, PC: 2}}}},
		{"SB", "tso", [][]isa.Site{{{Thread: 0, PC: 2}, {Thread: 1, PC: 2}}}},
		// 2+2W under RMO: either thread's store-store fence alone restores
		// enough order — two alternative singleton solutions.
		{"2+2W", "rmo", [][]isa.Site{{{Thread: 0, PC: 3}}, {{Thread: 1, PC: 3}}}},
		// R under TSO: fencing either thread's last access works.
		{"R", "tso", [][]isa.Site{{{Thread: 0, PC: 2}}, {{Thread: 1, PC: 2}}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.test+"/"+tc.config, func(t *testing.T) {
			t.Parallel()
			res := search(t, tc.test, []string{tc.config}, Options{Seeds: 48, Workers: 4})
			m := res.Models[0]
			if m.AlreadyForbidden {
				t.Fatalf("%s/%s: baseline unexpectedly forbids the target", tc.test, tc.config)
			}
			if !reflect.DeepEqual(m.Minimal, tc.want) {
				t.Fatalf("minimal sets = %v, want %v\n%s", m.Minimal, tc.want, res.Report())
			}
		})
	}
}

// TestAlreadyForbiddenBaseline: under SC the targets never appear, so the
// search stops at the empty set.
func TestAlreadyForbiddenBaseline(t *testing.T) {
	res := search(t, "SB", []string{"sc", "invisi-sc"}, Options{Seeds: 24, Workers: 4})
	for _, m := range res.Models {
		if !m.AlreadyForbidden || len(m.Minimal) != 0 || m.Evals != 1 {
			t.Fatalf("%s: want AlreadyForbidden with 1 eval, got %+v", m.Config, m)
		}
	}
}

// TestOracleCrossCheck re-verifies every reported minimal set by direct
// simulation, outside the search's cache path: the set must be sufficient
// (zero target runs), and removing any single fence must re-admit the
// target (minimality). It also checks reported sets are mutually
// incomparable.
func TestOracleCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-check sweep is not -short")
	}
	const seeds = 48
	queries := []struct {
		test    string
		configs []string
	}{
		{"MP", []string{"rmo", "invisi-rmo"}},
		{"SB", []string{"tso", "rmo", "invisi-tso", "invisi-rmo"}},
		{"2+2W", []string{"rmo", "invisi-rmo"}},
		{"R", []string{"tso", "rmo"}},
	}
	for _, q := range queries {
		q := q
		t.Run(q.test, func(t *testing.T) {
			t.Parallel()
			res := search(t, q.test, q.configs, Options{Seeds: seeds, Workers: 4})
			var tt *litmus.Test
			for i := range litmus.Tests {
				if litmus.Tests[i].Name == q.test {
					tt = &litmus.Tests[i]
				}
			}
			bodies := litmus.BodyPrograms(*tt, isa.NoFences)
			specs, err := resolveConfigs(q.configs)
			if err != nil {
				t.Fatal(err)
			}
			simulate := func(spec litmus.ConfigSpec, set []isa.Site) int {
				fenced, err := isa.FenceSet(bodies, set)
				if err != nil {
					t.Fatal(err)
				}
				h := litmus.Harness{Name: q.test, Slots: tt.Slots, Finals: tt.FinalVars, Bodies: fenced}
				return litmus.CountMatches(h.Sweep(spec, seeds), tt.Target)
			}
			for mi, m := range res.Models {
				if m.AlreadyForbidden {
					continue
				}
				if len(m.Minimal) == 0 {
					t.Errorf("%s: baseline admits target but no fence set found", m.Config)
					continue
				}
				for _, set := range m.Minimal {
					// Sufficiency: the full set forbids the outcome.
					if n := simulate(specs[mi], set); n != 0 {
						t.Errorf("%s: reported set %v admits target in %d/%d runs", m.Config, set, n, seeds)
					}
					// Minimality: dropping any one fence re-admits it.
					for drop := range set {
						sub := make([]isa.Site, 0, len(set)-1)
						sub = append(sub, set[:drop]...)
						sub = append(sub, set[drop+1:]...)
						if n := simulate(specs[mi], sub); n == 0 {
							t.Errorf("%s: set %v not minimal — %v already suffices", m.Config, set, sub)
						}
					}
				}
				// Mutual incomparability.
				for i := range m.Minimal {
					for j := range m.Minimal {
						if i != j && siteSubset(m.Minimal[i], m.Minimal[j]) {
							t.Errorf("%s: reported set %v ⊆ %v", m.Config, m.Minimal[i], m.Minimal[j])
						}
					}
				}
			}
		})
	}
}

// siteSubset reports a ⊆ b for site sets.
func siteSubset(a, b []isa.Site) bool {
	for _, s := range a {
		found := false
		for _, x := range b {
			if x == s {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestRepeatQueryHitsCache: a second identical query through a shared cache
// performs zero simulations, serves ≥90% of its lookups from the cache
// (per runcache's own stats), and renders a byte-identical report.
func TestRepeatQueryHitsCache(t *testing.T) {
	cache, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seeds: 32, Workers: 4, Cache: cache}
	cold := search(t, "SB", []string{"rmo", "tso"}, opts)
	if cold.Simulated != cold.Evals || cold.CacheHits != 0 {
		t.Fatalf("cold run: %d/%d simulated, %d hits", cold.Simulated, cold.Evals, cold.CacheHits)
	}
	before := cache.Stats()
	warm := search(t, "SB", []string{"rmo", "tso"}, opts)
	if warm.Simulated != 0 {
		t.Fatalf("warm run simulated %d evaluations (want 0)", warm.Simulated)
	}
	if warm.Runs != 0 {
		t.Fatalf("warm run executed %d simulator runs (want 0)", warm.Runs)
	}
	if warm.CacheHits != warm.Evals {
		t.Fatalf("warm run: %d hits for %d evaluations", warm.CacheHits, warm.Evals)
	}
	after := cache.Stats()
	hits := (after.Hits + after.MemHits) - (before.Hits + before.MemHits)
	misses := after.Misses - before.Misses
	if total := hits + misses; total == 0 || float64(hits)/float64(total) < 0.9 {
		t.Fatalf("warm-run cache hit rate %d/%d below 90%%", hits, total)
	}
	if cold.Report() != warm.Report() {
		t.Fatalf("cold and warm reports differ:\n%s\nvs\n%s", cold.Report(), warm.Report())
	}
}

// TestReportDeterministicAcrossWorkers: worker count must not change the
// report (results are ordered by job index, not completion).
func TestReportDeterministicAcrossWorkers(t *testing.T) {
	a := search(t, "MP", []string{"rmo"}, Options{Seeds: 32, Workers: 1})
	b := search(t, "MP", []string{"rmo"}, Options{Seeds: 32, Workers: 8})
	if a.Report() != b.Report() {
		t.Fatalf("reports differ across worker counts:\n%s\nvs\n%s", a.Report(), b.Report())
	}
}

// TestMaxFencesBoundsLattice: capping the set size must truncate the
// search without corrupting smaller levels.
func TestMaxFencesBoundsLattice(t *testing.T) {
	full := search(t, "SB", []string{"rmo"}, Options{Seeds: 32, Workers: 4})
	capped := search(t, "SB", []string{"rmo"}, Options{Seeds: 32, Workers: 4, MaxFences: 1})
	if len(capped.Models[0].Minimal) != 0 {
		t.Fatalf("SB has no single-fence solution, got %v", capped.Models[0].Minimal)
	}
	if capped.Evals >= full.Evals {
		t.Fatalf("capped search evaluated %d ≥ full %d", capped.Evals, full.Evals)
	}
}

// TestSearchInputValidation covers the error paths.
func TestSearchInputValidation(t *testing.T) {
	if _, err := Search(Query{Test: "nope"}, Options{}); err == nil {
		t.Error("unknown test accepted")
	}
	if _, err := Search(Query{Test: "SB", Configs: []string{"nope"}}, Options{}); err == nil {
		t.Error("unknown config accepted")
	}
	if _, err := Search(Query{Test: "RMW"}, Options{}); err == nil {
		t.Error("targetless test accepted without explicit target")
	}
	if _, err := SearchInput(Input{}, nil, Options{}); err == nil {
		t.Error("empty input accepted")
	}
}

func TestCombinations(t *testing.T) {
	got := combinations(4, 2)
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("combinations(4,2) = %v, want %v", got, want)
	}
	if c := combinations(3, 0); len(c) != 1 || len(c[0]) != 0 {
		t.Fatalf("combinations(3,0) = %v, want one empty set", c)
	}
	if combinations(2, 3) != nil {
		t.Fatal("combinations(2,3) should be empty")
	}
}

func TestIsSubset(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{[]int{}, []int{1, 2}, true},
		{[]int{1}, []int{1, 2}, true},
		{[]int{1, 2}, []int{1, 2}, true},
		{[]int{3}, []int{1, 2}, false},
		{[]int{1, 3}, []int{1, 2}, false},
	}
	for _, c := range cases {
		if got := isSubset(c.a, c.b); got != c.want {
			t.Errorf("isSubset(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// fuzzTests and fuzzConfigs bound the fuzz domain to searchable corpus
// entries and the implementations whose lattices stay small enough for a
// per-input full search.
var fuzzTests = []string{"SB", "MP", "LB", "CoRR", "2+2W", "R", "S"}
var fuzzConfigs = []string{"sc", "tso", "rmo", "invisi-tso", "invisi-rmo"}

// FuzzFenceSearch checks the search invariants on arbitrary (test, config,
// seeds, cap) points: reported sets are sufficient by direct re-simulation,
// mutually incomparable, and the report is byte-identical across two
// independent runs (fresh caches, different worker counts).
func FuzzFenceSearch(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(24), uint8(0)) // SB/rmo — the classic pair
	f.Add(uint8(1), uint8(2), uint8(24), uint8(0)) // MP/rmo — writer-side only
	f.Add(uint8(4), uint8(2), uint8(16), uint8(1)) // 2+2W/rmo capped at 1
	f.Add(uint8(5), uint8(1), uint8(16), uint8(0)) // R/tso — two singletons
	f.Add(uint8(0), uint8(0), uint8(8), uint8(2))  // SB/sc — already forbidden
	f.Fuzz(func(t *testing.T, ti, ci, seeds, maxF uint8) {
		test := fuzzTests[int(ti)%len(fuzzTests)]
		config := fuzzConfigs[int(ci)%len(fuzzConfigs)]
		nseeds := 8 + int(seeds)%25 // 8..32
		opts := Options{Seeds: nseeds, MaxFences: int(maxF) % 3, Workers: 4}
		res := search(t, test, []string{config}, opts)
		again := search(t, test, []string{config}, Options{
			Seeds: nseeds, MaxFences: int(maxF) % 3, Workers: 1})
		if res.Report() != again.Report() {
			t.Fatalf("report not deterministic:\n%s\nvs\n%s", res.Report(), again.Report())
		}
		var tt *litmus.Test
		for i := range litmus.Tests {
			if litmus.Tests[i].Name == test {
				tt = &litmus.Tests[i]
			}
		}
		bodies := litmus.BodyPrograms(*tt, isa.NoFences)
		specs, _ := resolveConfigs([]string{config})
		m := res.Models[0]
		for _, set := range m.Minimal {
			fenced, err := isa.FenceSet(bodies, set)
			if err != nil {
				t.Fatal(err)
			}
			h := litmus.Harness{Name: test, Slots: tt.Slots, Finals: tt.FinalVars, Bodies: fenced}
			if n := litmus.CountMatches(h.Sweep(specs[0], nseeds), tt.Target); n != 0 {
				t.Fatalf("%s/%s: reported set %v admits target in %d/%d runs", test, config, set, n, nseeds)
			}
		}
		for i := range m.Minimal {
			for j := range m.Minimal {
				if i != j && siteSubset(m.Minimal[i], m.Minimal[j]) {
					t.Fatalf("%s/%s: reported sets comparable: %v ⊆ %v", test, config, m.Minimal[i], m.Minimal[j])
				}
			}
		}
	})
}
