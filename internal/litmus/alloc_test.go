package litmus

import (
	"runtime"
	"testing"

	"invisifence/internal/consistency"
)

// TestRunSeedAllocBytes pins construction sized to the run: one SB run
// (four loop-free threads of a few instructions) must not pay for a
// 96-entry ROB ring and a 4,096-entry predictor per core, a 64-entry
// directory arena chunk or table per node, a slice header per cache set,
// four checkpoint register files per engine, or a seeded math/rand
// generator per network (its jitter comes from the shared draws). For
// every configuration, the average heap bytes one RunSeed allocates stay
// under 41 KB, about 10% above the largest measured (38,411 bytes, sc);
// the first configuration also builds the shared draws of its seeds. Not parallel: TotalAlloc is process-wide, and the package's
// parallel tests start only after this one returns.
func TestRunSeedAllocBytes(t *testing.T) {
	const (
		runs     = 20
		maxBytes = 41 << 10
	)
	sb := Tests[0]
	if sb.Name != "SB" {
		t.Fatal("test order changed")
	}
	for _, spec := range AllConfigs() {
		h := HarnessFor(sb, consistency.SyncFences(spec.Model))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for seed := int64(0); seed < runs; seed++ {
			h.RunSeed(spec, seed)
		}
		runtime.ReadMemStats(&after)
		avg := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d bytes per run", spec.Name, avg)
		if avg > maxBytes {
			t.Errorf("%s: one SB RunSeed allocates %d bytes on average, want <= %d", spec.Name, avg, maxBytes)
		}
	}
}

// BenchmarkRunSeed times one SB run per configuration — construction
// included, which dominates runs this small — and reports its allocations.
func BenchmarkRunSeed(b *testing.B) {
	sb := Tests[0]
	for _, spec := range AllConfigs() {
		h := HarnessFor(sb, consistency.SyncFences(spec.Model))
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.RunSeed(spec, int64(i%40))
			}
		})
	}
}
