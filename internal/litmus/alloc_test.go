package litmus

import (
	"runtime"
	"testing"

	"invisifence/internal/consistency"
)

// TestRunSeedAllocBytes pins construction recycled whole: one SB run (four
// loop-free threads of a few instructions) rebuilds a pooled rig in place
// — its System through sim.System.Init, its programs assembled over the
// last run's — so it must not allocate a core, a cache, a directory, a
// network or a program, nor regrow a queue, a map or a memory block the
// last run already grew, nor seed a math/rand generator (its jitter comes
// from the shared draws). Each configuration first runs its seeds once, so
// the pool's first rig and the shared draws of the seeds are not measured;
// then the average heap bytes of one RunSeed stay under 64 for every
// configuration (measured: 0-3 bytes). Under the race detector sync.Pool
// drops a quarter of its Puts, so about one run in four builds a fresh
// System, and the bound is the 41 KB that a fresh build per run once met.
// Not parallel: TotalAlloc is process-wide, and the package's parallel
// tests start only after this one returns.
func TestRunSeedAllocBytes(t *testing.T) {
	const runs = 20
	maxBytes := uint64(64)
	if raceEnabled {
		maxBytes = 41 << 10
	}
	sb := Tests[0]
	if sb.Name != "SB" {
		t.Fatal("test order changed")
	}
	for _, spec := range AllConfigs() {
		h := HarnessFor(sb, consistency.SyncFences(spec.Model))
		for seed := int64(0); seed < runs; seed++ {
			h.RunSeed(spec, seed)
		}
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

// BenchmarkRunSeed times one SB run per configuration — the rebuild of a
// pooled rig included, which dominated runs this small while each run
// built a fresh one — and reports its allocations.
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
