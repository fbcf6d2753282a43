package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"invisifence"
	"invisifence/internal/crossval"
)

var update = flag.Bool("update", false, "rewrite expected/ from the current simulator")

// benchmarkJSON is the slice of ../BENCHMARK.json the tests check against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func shortRun(t *testing.T, name string, trace bool) (result, string) {
	t.Helper()
	var log bytes.Buffer
	rep := newReport(&log)
	p := params{seed: defaultSeed, seconds: time.Nanosecond, trace: trace, short: true, work: t.TempDir()}
	if err := workloads[name](p, rep); err != nil {
		t.Fatalf("%s: %v\n%s", name, err, log.String())
	}
	return rep.result(), log.String()
}

// TestShortRuns runs every workload the benchmark knows end to end,
// untraced and traced — campaign-mixed too, which BENCHMARK.json does not
// list (see README.md) — and checks that each emits exactly the metrics
// BENCHMARK.json names, with their units, and that no operation failed.
func TestShortRuns(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not run", w.Name)
		}
	}
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			res, log := shortRun(t, name, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					name, trace, res.Correct, res.Attempted, res.Failed, log)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestPerLayerMatchesBenchmarkJSON keeps the traced run's metric list and
// BENCHMARK.json's per_layer list identical, units included.
func TestPerLayerMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var got, want []string
	for _, m := range perLayer {
		got = append(got, m.name+" "+m.unit)
	}
	for _, m := range b.PerLayer {
		want = append(want, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics %v\nBENCHMARK.json %v", got, want)
	}
}

var digestLine = regexp.MustCompile(`(?m)^cell .* digest=\w+$`)

// TestDigestsRepeat: two back-to-back short runs print identical cell
// digests.
func TestDigestsRepeat(t *testing.T) {
	_, log1 := shortRun(t, "sim-grid", false)
	_, log2 := shortRun(t, "sim-grid", false)
	d1, d2 := digestLine.FindAllString(log1, -1), digestLine.FindAllString(log2, -1)
	if len(d1) == 0 || !reflect.DeepEqual(d1, d2) {
		t.Errorf("digests differ between runs:\n%v\n%v", d1, d2)
	}
}

// TestWrongExpectationFails: a wrong pinned digest or classification is a
// failed operation, not a pass.
func TestWrongExpectationFails(t *testing.T) {
	_, out, err := sweepPass(gridSpec(params{seed: defaultSeed, short: true}, defaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	runs := out.Runs
	want := map[string]string{}
	for _, r := range runs {
		want[cellName(r.Config)] = digest(r.Result)
	}
	rep := newReport(&bytes.Buffer{})
	checkGrid(rep, runs, map[string]string{}, want)
	if rep.failed != 0 {
		t.Fatalf("correct digests: %d failed", rep.failed)
	}
	want[cellName(runs[0].Config)] = "0123456789abcdef"
	rep = newReport(&bytes.Buffer{})
	checkGrid(rep, runs, map[string]string{}, want)
	if rep.failed != 1 || rep.attempted != len(runs) {
		t.Errorf("one wrong digest: %d of %d failed, want 1", rep.failed, rep.attempted)
	}

	r, _, err := query("CoRR", nil)
	if err != nil {
		t.Fatal(err)
	}
	classes := map[string]map[string]int{"CoRR": classCounts(r)}
	classes["CoRR"]["match"]++
	rep = newReport(&bytes.Buffer{})
	checkQuery(rep, "CoRR", r, classes)
	if rep.failed != 1 {
		t.Errorf("wrong classification: %d failed, want 1", rep.failed)
	}
}

// TestExpected checks the pinned expectations against the current tree
// (go test -update rewrites them): the default-seed grid digests at every
// simulation seed of the run, which must also agree with every overlapping
// cell of the repository's golden grid, and the corpus classification,
// whose summary is 124 match, 45 static-conservative, 0 violations, 13
// skipped.
func TestExpected(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full default-seed grids and corpus")
	}
	p := params{seed: defaultSeed}
	digests := map[string]string{}
	for _, seed := range simSeeds(p) {
		_, out, err := sweepPass(gridSpec(p, seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range out.Runs {
			digests[cellName(r.Config)] = digest(r.Result)
		}
	}
	classes := map[string]map[string]int{}
	totals := map[string]int{}
	for _, name := range corpusTests(params{}) {
		r, _, err := query(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		classes[name] = classCounts(r)
		for k, n := range classes[name] {
			totals[k] += n
		}
	}
	wantTotals := map[string]int{
		string(crossval.ClassMatch): 124, string(crossval.ClassConservative): 45, string(crossval.ClassSkipped): 13,
	}
	if !reflect.DeepEqual(totals, wantTotals) {
		t.Errorf("corpus summary %v, want %v", totals, wantTotals)
	}
	if *update {
		writeJSON(t, "expected/sim-grid-seed1.json", digests)
		writeJSON(t, "expected/litmus-oracle.json", classes)
		return
	}
	want, err := expectedDigests(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(digests, want) {
		t.Errorf("grid digests %v\nexpected %v", digests, want)
	}
	wantClasses, err := expectedClasses()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(classes, wantClasses) {
		t.Errorf("corpus classes %v\nexpected %v", classes, wantClasses)
	}

	data, err := os.ReadFile("../testdata/golden_results.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []struct {
		Scale  float64
		Result invisifence.Result
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	overlap := 0
	for _, g := range golden {
		name := cellName(g.Result.Config)
		if g.Scale != 0.25 || g.Result.Config.Seed != defaultSeed || want[name] == "" {
			continue
		}
		overlap++
		if d := digest(g.Result); d != want[name] {
			t.Errorf("%s: golden digest %s, expected %s", name, d, want[name])
		}
	}
	if overlap == 0 {
		t.Error("no golden cell overlaps the grid")
	}
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
