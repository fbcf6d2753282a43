package invisifence

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tinySpec() SweepSpec {
	m := tinyMachine()
	return SweepSpec{
		Workloads: []string{"barnes"},
		Variants:  []string{"sc", "invisi-sc"},
		Seeds:     []int64{1, 2},
		Scale:     0.2,
		Machine:   &m,
	}
}

func TestVariantByName(t *testing.T) {
	for _, name := range VariantNames() {
		v, err := VariantByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v.Name == "" || v.SBCapacity == 0 {
			t.Fatalf("%s: incomplete variant %+v", name, v)
		}
	}
	if v, err := VariantByName("INVISI-SC"); err != nil || v.Name != "Invisi_sc" {
		t.Fatalf("case-insensitive lookup: %+v, %v", v, err)
	}
	if _, err := VariantByName("nope"); err == nil {
		t.Fatal("expected unknown-variant error")
	}
}

func TestTorusFor(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {8, 4, 2}, {16, 4, 4}, {12, 4, 3}, {7, 7, 1},
	}
	for _, c := range cases {
		w, h, err := TorusFor(c.n)
		if err != nil || w != c.w || h != c.h {
			t.Fatalf("TorusFor(%d) = %dx%d, %v; want %dx%d", c.n, w, h, err, c.w, c.h)
		}
	}
	if _, _, err := TorusFor(0); err == nil {
		t.Fatal("expected error for 0 nodes")
	}
}

func TestSweepSpecJobsExpansion(t *testing.T) {
	spec := tinySpec()
	spec.SBDepths = []int{0, 4}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// 1 workload x 2 variants x 2 depths x 1 ckpt x 1 nodes x 2 seeds.
	if len(jobs) != 8 {
		t.Fatalf("job count: %d", len(jobs))
	}
	if spec.Size() != len(jobs) {
		t.Fatalf("Size %d != len(Jobs) %d", spec.Size(), len(jobs))
	}
	// Row-major: workload slowest, seed fastest.
	if jobs[0].Variant.Name != "sc" || jobs[0].Seed != 1 || jobs[1].Seed != 2 {
		t.Fatalf("order: %+v", jobs[:2])
	}
	// sb override applies and renames; sb=0 keeps the default.
	if jobs[0].Variant.SBCapacity != 64 {
		t.Fatalf("default sb: %d", jobs[0].Variant.SBCapacity)
	}
	if jobs[2].Variant.SBCapacity != 4 || !strings.Contains(jobs[2].Variant.Name, "@sb4") {
		t.Fatalf("sb override: %+v", jobs[2].Variant)
	}
	// Expansion is deterministic.
	again, _ := spec.Jobs()
	for i := range jobs {
		if ResultKey(jobs[i]) != ResultKey(again[i]) {
			t.Fatalf("job %d not reproducible", i)
		}
	}

	// Two values on every axis: the full order is the seven nested axis
	// loops, workload outermost and seed innermost. Both variants are
	// speculative, so the checkpoint axis never dedupes a cell.
	m := tinyMachine()
	full := SweepSpec{
		Workloads:      []string{"barnes", "ocean"},
		Variants:       []string{"invisi-sc", "invisi-tso"},
		SBDepths:       []int{0, 4},
		Checkpoints:    []int{0, 2},
		Nodes:          []int{4, 8},
		LinkBandwidths: []uint64{0, 2},
		Seeds:          []int64{1, 2},
		Scale:          0.2,
		Machine:        &m,
	}
	jobs, err = full.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if full.Size() != 128 || len(jobs) != 128 {
		t.Fatalf("Size %d, len(Jobs) %d, want 128", full.Size(), len(jobs))
	}
	var want []string
	for _, wl := range full.Workloads {
		for _, vn := range full.Variants {
			for _, sb := range full.SBDepths {
				for _, ck := range full.Checkpoints {
					for _, nodes := range full.Nodes {
						for _, bw := range full.LinkBandwidths {
							for _, seed := range full.Seeds {
								v, _ := VariantByName(vn)
								name := v.Name
								if sb > 0 {
									name += fmt.Sprintf("@sb%d", sb)
								}
								if ck > 0 {
									name += fmt.Sprintf("@ckpt%d", ck)
								}
								want = append(want, fmt.Sprintf("%s/%s/n%d/bw%d/s%d", wl, name, nodes, bw, seed))
							}
						}
					}
				}
			}
		}
	}
	h := sha256.New()
	for i, cfg := range jobs {
		got := fmt.Sprintf("%s/%s/n%d/bw%d/s%d", cfg.Workload, cfg.Variant.Name,
			cfg.Machine.Width*cfg.Machine.Height, cfg.Machine.LinkBandwidth, cfg.Seed)
		if got != want[i] {
			t.Fatalf("job %d = %s, want %s", i, got, want[i])
		}
		fmt.Fprintln(h, ResultKey(cfg))
	}
	// The digest of every job's ResultKey, in order, pins each cell's
	// full configuration, not just the fields rendered above.
	const wantDigest = "521e99a0e19d138dca6bcb26459469e95d448e2127ca1ddf1bf1ae6cde635a6b"
	if d := hex.EncodeToString(h.Sum(nil)); d != wantDigest {
		t.Fatalf("job ResultKey digest = %s, want %s", d, wantDigest)
	}
}

func TestSweepSpecDefaults(t *testing.T) {
	jobs, err := SweepSpec{}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(Workloads()) {
		t.Fatalf("zero spec: %d jobs", len(jobs))
	}
	if jobs[0].Variant.Name != "sc" || jobs[0].Scale != 1.0 || jobs[0].Seed != 1 {
		t.Fatalf("zero-spec defaults: %+v", jobs[0])
	}
	if jobs[0].Machine.Width*jobs[0].Machine.Height != 16 {
		t.Fatal("zero spec must default to the 16-node machine")
	}
}

func TestSweepSpecDedupesIdenticalConfigs(t *testing.T) {
	// A checkpoint axis crossed with a conventional variant expands to
	// identical configs (conventional ignores it); only one job survives
	// per distinct configuration, so nothing ever simulates twice.
	spec := tinySpec()
	spec.Variants = []string{"sc", "invisi-sc"}
	spec.Checkpoints = []int{1, 2}
	spec.Seeds = []int64{1}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// sc collapses to 1 job; invisi-sc keeps both checkpoint settings.
	if len(jobs) != 3 {
		t.Fatalf("job count after dedup: %d, want 3", len(jobs))
	}
	if spec.Size() != 4 {
		t.Fatalf("grid size: %d, want 4 (pre-dedup)", spec.Size())
	}
	keys := make(map[string]bool)
	for _, j := range jobs {
		k := ResultKey(j)
		if keys[k] {
			t.Fatalf("duplicate config survived dedup: %s/%s", j.Workload, j.Variant.Name)
		}
		keys[k] = true
	}
}

func TestCampaignCacheErr(t *testing.T) {
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// A plain file as CacheDir cannot be opened as a directory; the
	// campaign must degrade to memory-only and report why.
	c := NewCampaign(ExpOptions{CacheDir: f})
	if c.CacheErr() == nil {
		t.Fatal("expected CacheErr for unusable cache dir")
	}
	if NewCampaign(ExpOptions{}).CacheErr() != nil {
		t.Fatal("CacheErr must be nil when no CacheDir was requested")
	}
}

func TestSweepSpecRejectsBadInput(t *testing.T) {
	spec := tinySpec()
	spec.Variants = []string{"nope"}
	if _, err := spec.Jobs(); err == nil {
		t.Fatal("expected unknown-variant error")
	}
	spec = tinySpec()
	spec.SBDepths = []int{-1}
	if _, err := spec.Jobs(); err == nil {
		t.Fatal("expected negative-depth error")
	}
	spec = tinySpec()
	spec.Nodes = []int{0}
	if _, err := spec.Jobs(); err == nil {
		t.Fatal("expected bad node count error")
	}
}

// TestSweepPersistentCache is the subsystem's acceptance test: a second
// sweep of the same spec simulates nothing and renders the same table.
func TestSweepPersistentCache(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()
	opts := SweepOptions{Parallel: 4, CacheDir: dir}

	first, err := Sweep(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Simulated != 4 {
		t.Fatalf("first sweep simulated %d of 4", first.Simulated)
	}
	for _, r := range first.Runs {
		if r.Cached {
			t.Fatal("first sweep claims cache hits")
		}
	}

	second, err := Sweep(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Simulated != 0 {
		t.Fatalf("second sweep re-simulated %d runs", second.Simulated)
	}
	for _, r := range second.Runs {
		if !r.Cached {
			t.Fatalf("uncached run on second sweep: %s/%s", r.Config.Workload, r.Config.Variant.Name)
		}
	}
	if got, want := second.Table().String(), first.Table().String(); got != want {
		t.Fatalf("tables differ between sweeps:\n%s\nvs\n%s", got, want)
	}
	if s := second.CacheStats; s.Hits != 4 {
		t.Fatalf("second sweep cache stats: %+v", s)
	}
}

func TestSweepWithoutCacheDir(t *testing.T) {
	spec := tinySpec()
	spec.Variants = []string{"sc"}
	spec.Seeds = []int64{1}
	out, err := Sweep(spec, SweepOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Runs) != 1 || out.Simulated != 1 || out.Runs[0].Cached {
		t.Fatalf("outcome: %+v", out)
	}
	if !strings.Contains(out.Table().String(), "barnes") {
		t.Fatal("table missing run row")
	}
}

func TestSweepProgressAndDeterminism(t *testing.T) {
	spec := tinySpec()
	calls := 0
	cached := 0
	opts := SweepOptions{Parallel: 3, CacheDir: t.TempDir(),
		Progress: func(done, total int, cfg Config, hit bool) {
			calls++
			if hit {
				cached++
			}
			if total != 4 || done < 1 || done > 4 {
				t.Errorf("progress %d/%d", done, total)
			}
		}}
	a, err := Sweep(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 || cached != 0 {
		t.Fatalf("progress calls %d, cached %d", calls, cached)
	}
	// A serial sweep over the same cache yields identical run ordering.
	b, err := Sweep(spec, SweepOptions{Parallel: 1, CacheDir: opts.CacheDir})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Runs {
		if a.Runs[i].Result.Cycles != b.Runs[i].Result.Cycles {
			t.Fatalf("run %d differs across worker counts", i)
		}
	}
}

// TestCampaignUsesPersistentCache is the Campaign regression test: a fresh
// Campaign over a warmed cache directory must answer from disk.
func TestCampaignUsesPersistentCache(t *testing.T) {
	dir := t.TempDir()
	m := tinyMachine()
	opts := ExpOptions{
		Machine:   &m,
		Workloads: []string{"barnes"},
		Seeds:     []int64{1},
		Scale:     0.2,
		CacheDir:  dir,
	}
	v := ConventionalVariant(SC)

	warm := NewCampaign(opts)
	r1, err := warm.Results("barnes", v)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Simulated() != 1 {
		t.Fatalf("warm campaign simulated %d", warm.Simulated())
	}

	cold := NewCampaign(opts) // a "new process" sharing the directory
	r2, err := cold.Results("barnes", v)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Simulated() != 0 {
		t.Fatalf("second campaign re-simulated %d cells", cold.Simulated())
	}
	if s := cold.CacheStats(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("cache stats: %+v", s)
	}
	if r1[0].Cycles != r2[0].Cycles || r1[0].Retired != r2[0].Retired {
		t.Fatal("cached result differs from simulated result")
	}
	// Figures built from cache match figures built from simulation.
	f1, err := Figure10(warm)
	if err != nil {
		t.Fatal(err)
	}
	_ = f1 // Figure10 needs Invisi variants; just ensure no error with cache on.
}

// TestSweepAndCampaignShareCache checks the two entry points agree on keys:
// a sweep's results satisfy a later campaign without re-simulation.
func TestSweepAndCampaignShareCache(t *testing.T) {
	dir := t.TempDir()
	m := tinyMachine()
	spec := SweepSpec{
		Workloads: []string{"barnes"},
		Variants:  []string{"sc"},
		Seeds:     []int64{1},
		Scale:     0.2,
		Machine:   &m,
	}
	if _, err := Sweep(spec, SweepOptions{CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	c := NewCampaign(ExpOptions{
		Machine:   &m,
		Workloads: []string{"barnes"},
		Seeds:     []int64{1},
		Scale:     0.2,
		CacheDir:  dir,
	})
	if _, err := c.Results("barnes", ConventionalVariant(SC)); err != nil {
		t.Fatal(err)
	}
	if c.Simulated() != 0 {
		t.Fatalf("campaign re-simulated %d cells after sweep warmed the cache", c.Simulated())
	}
}
