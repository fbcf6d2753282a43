package main

import (
	"path/filepath"
	"testing"
)

// TestLoadCommittedBenchFiles decodes every committed BENCH_<n>.json,
// including BENCH_1.json's fields that cmd/bench no longer writes.
func TestLoadCommittedBenchFiles(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no BENCH files found (%v)", err)
	}
	for _, p := range paths {
		if f, _, err := load(p); err != nil || len(f.Runs) == 0 {
			t.Errorf("%s: %d runs, %v", p, len(f.Runs), err)
		}
	}
}
