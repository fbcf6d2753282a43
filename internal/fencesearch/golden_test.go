package fencesearch

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"invisifence/internal/runcache"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current search")

// TestReportGolden pins the full 48-seed report of the four tests with
// live search walks, over every implementation: the output of
// cmd/fencesearch -test <name>, with and without -prune. Regenerate (only
// with a change that explains every moved byte):
//
//	go test ./internal/fencesearch -run TestReportGolden -update
func TestReportGolden(t *testing.T) {
	for _, name := range []string{"SB", "MP", "2+2W", "R"} {
		golden := filepath.Join("testdata", name+".golden")
		for _, prune := range []bool{false, true} {
			res := search(t, name, nil, Options{Workers: 4, Prune: prune})
			if *update && !prune {
				if err := os.WriteFile(golden, []byte(res.Report()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Report(); got != string(want) {
				t.Errorf("%s (prune=%v) differs from %s:\n%s", name, prune, golden, got)
			}
		}
	}
}

// TestCacheKeysStable pins the evaluation cache key of SB/rmo's unfenced
// baseline and of its minimal fenced candidate {T0@2, T1@2}. The keys hash
// the fenced instruction streams, so a change to how fences are inserted
// or how the key is built shows up here before it silently invalidates
// every existing -cache directory.
func TestCacheKeysStable(t *testing.T) {
	dir := t.TempDir()
	cache, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	search(t, "SB", []string{"rmo"}, Options{Seeds: 48, Workers: 1, Cache: cache})
	for what, key := range map[string]string{
		"baseline":     "9a4e766a42325a0df589f00dab3c953c94dccff102f0b843a3b76ca6dbd11367",
		"{T0@2, T1@2}": "6a49a7f4d77519d8090c0295b8c4ec0e9ef2dd163269c3df49d27b70d4e7adae",
	} {
		if _, err := os.Stat(filepath.Join(dir, key[:2], key+".json")); err != nil {
			t.Errorf("SB/rmo %s: no cache entry under key %s: %v", what, key, err)
		}
	}
}
