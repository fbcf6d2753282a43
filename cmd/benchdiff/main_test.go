package main

import (
	"path/filepath"
	"strings"
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

// TestBytesPerRunGate diffs two fixture files whose allocation counts and
// rates are equal: apache's bytes/run grows by 50%, past the 25% allocation
// threshold, and zeus's by 20%, within it. Only apache may fail, and only on
// bytes.
func TestBytesPerRunGate(t *testing.T) {
	oldF, _, err := load("testdata/bytes_old.json")
	if err != nil {
		t.Fatal(err)
	}
	newF, _, err := load("testdata/bytes_new.json")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if n := diff(&out, oldF, newF, 0.10, 0.25); n != 1 {
		t.Fatalf("%d cells regressed, want 1:\n%s", n, out.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		apache := strings.Contains(line, "apache/sc")
		if apache != strings.HasSuffix(line, "<< BYTES REGRESSION") || strings.Contains(line, "ALLOC") {
			t.Errorf("unexpected gate verdict: %s", line)
		}
		if !strings.Contains(line, "bytes") {
			t.Errorf("no bytes/run column: %s", line)
		}
	}
	if n := diff(&out, oldF, newF, 0.10, 0.5); n != 0 {
		t.Fatalf("%d cells regressed at a 50%% threshold, want 0", n)
	}
}
