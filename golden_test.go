package invisifence

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The golden-result test pins the simulator core bit-exactly: any change to
// the cycle loop, the caches, the network, or the coherence protocol that
// alters a single simulated outcome — one cycle, one retired instruction,
// one breakdown bucket, one event counter — fails here. Performance work on
// the hot loop (idle-skip scheduling, allocation removal) must keep every
// Result identical to the seed implementation that generated the file.
//
// Regenerate (only when an intentional semantic change is made, with a PR
// explaining why every delta is correct):
//
//	go test -run TestGoldenResults -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_results.json from the current simulator")

// goldenCase names one pinned configuration.
type goldenCase struct {
	Workload string
	Variant  string // VariantByName name
	Scale    float64
}

// goldenCases covers all seven workloads under conventional SC and
// INVISIFENCE-SELECTIVE-SC (the acceptance grid), plus full-scale apache
// under both (the bench reference point) and one RMO/TSO pair so the FIFO
// and coalescing store-buffer paths both stay pinned.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, wl := range Workloads() {
		cases = append(cases,
			goldenCase{wl, "sc", 0.25},
			goldenCase{wl, "invisi-sc", 0.25},
		)
	}
	cases = append(cases,
		goldenCase{"apache", "sc", 1.0},
		goldenCase{"apache", "invisi-sc", 1.0},
		goldenCase{"ocean", "tso", 0.25},
		goldenCase{"ocean", "rmo", 0.25},
		goldenCase{"barnes", "invisi-rmo", 0.25},
		goldenCase{"oltp-db2", "continuous-cov", 0.25},
		// The release-consistency family: the conventional RC baseline
		// (annotated sync library, release drains), speculation over RC,
		// and the Louvre-style versioned-ordering baseline.
		goldenCase{"ocean", "rc", 0.25},
		goldenCase{"barnes", "invisi-rc", 0.25},
		goldenCase{"apache", "louvre-rc", 0.25},
	)
	return cases
}

// goldenEntry is the pinned outcome of one case. CacheKey pins the runcache
// content-address too, so optimized and seed binaries share cached results.
type goldenEntry struct {
	Workload string  `json:"workload"`
	Variant  string  `json:"variant"`
	Scale    float64 `json:"scale"`
	CacheKey string  `json:"cache_key"`
	Result   Result  `json:"result"`
}

func goldenConfig(c goldenCase) Config {
	v, err := VariantByName(c.Variant)
	if err != nil {
		panic(err)
	}
	cfg := DefaultConfig()
	cfg.Workload = c.Workload
	cfg.Variant = v
	cfg.Scale = c.Scale
	return cfg
}

func goldenPath() string { return filepath.Join("testdata", "golden_results.json") }

func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid is minutes of simulation; skipped in -short")
	}
	cases := goldenCases()
	if *updateGolden {
		var entries []goldenEntry
		for _, c := range cases {
			cfg := goldenConfig(c)
			start := time.Now()
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Workload, c.Variant, err)
			}
			t.Logf("%s/%s scale=%.2f: %d cycles in %v", c.Workload, c.Variant, c.Scale, res.Cycles, time.Since(start).Round(time.Millisecond))
			entries = append(entries, goldenEntry{
				Workload: c.Workload,
				Variant:  c.Variant,
				Scale:    c.Scale,
				CacheKey: ResultKey(cfg),
				Result:   res,
			})
		}
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	data, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update-golden): %v", err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(cases) {
		t.Fatalf("golden file has %d entries, want %d (regenerate with -update-golden)", len(entries), len(cases))
	}
	for _, e := range entries {
		e := e
		t.Run(fmt.Sprintf("%s/%s@%.2g", e.Workload, e.Variant, e.Scale), func(t *testing.T) {
			t.Parallel()
			cfg := goldenConfig(goldenCase{e.Workload, e.Variant, e.Scale})
			if key := ResultKey(cfg); key != e.CacheKey {
				t.Errorf("cache key drifted: got %s want %s", key, e.CacheKey)
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(e.Result)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("Result diverged from golden:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}
