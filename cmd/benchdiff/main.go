// Command benchdiff compares two BENCH_<n>.json files produced by
// cmd/bench and fails (exit 1) when any grid cell's cycles/s regresses by
// more than a threshold — or when its allocations or allocated bytes per
// run grow by more than the allocation threshold, so neither the
// allocation-free message path nor the run-sized construction can silently
// regress behind a wall-clock-neutral change. CI uses it to diff
// the fresh quick-bench artifact against the previous run's artifact, so a
// PR that slows the simulator core down trips the gate with a per-cell
// table rather than a vague timeout.
//
// Cells are matched by (workload, variant, scale, link bandwidth); cells
// present in only one file are reported but never fail the gate (grids may
// grow). Contention cells additionally carry their queuing-delay-per-
// message telemetry into the report — informational only, never gated.
// Files measured at different -quick settings are refused — their rates
// are not comparable.
//
// Usage:
//
//	benchdiff old.json new.json
//	benchdiff -threshold 0.15 bench-prev/ bench-new/   # dirs: highest BENCH_<n>.json inside
//	benchdiff -alloc-threshold 0.5 old.json new.json   # tolerate +50% allocs and bytes/run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// cell mirrors the cmd/bench run schema fields benchdiff consumes (v1 and
// v2 files both decode; the contention fields are absent — zero — in
// pre-contention files). QueueDelayPerMsg is carried into the report for
// trend-watching but never gated: queuing delay is simulated machine
// behavior, not host performance, so a delay change is a model change to
// review, not a regression to block.
type cell struct {
	Workload         string  `json:"workload"`
	Variant          string  `json:"variant"`
	Scale            float64 `json:"scale"`
	LinkBandwidth    uint64  `json:"link_bandwidth"`
	CyclesPerSec     float64 `json:"cycles_per_sec"`
	AllocsPerRun     uint64  `json:"allocs_per_run"`
	BytesPerRun      uint64  `json:"bytes_per_run"`
	QueueDelayPerMsg float64 `json:"queue_delay_per_msg"`
}

type benchFile struct {
	Schema   string `json:"schema"`
	Quick    bool   `json:"quick"`
	Clusters int    `json:"clusters"` // 0 for v1 files (serial scheduler)
	Runs     []cell `json:"runs"`
}

var benchName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// resolve returns path itself for a file, or the highest-numbered
// BENCH_<n>.json inside it for a directory.
func resolve(path string) (string, error) {
	st, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	if !st.IsDir() {
		return path, nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, e := range entries {
		m := benchName.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if n, _ := strconv.Atoi(m[1]); n > bestN {
			bestN, best = n, filepath.Join(path, e.Name())
		}
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_<n>.json in %s", path)
	}
	return best, nil
}

func load(path string) (benchFile, string, error) {
	p, err := resolve(path)
	if err != nil {
		return benchFile{}, "", err
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return benchFile{}, "", err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return benchFile{}, "", fmt.Errorf("%s: %w", p, err)
	}
	return f, p, nil
}

// key identifies a grid cell across files. Contention cells carry their
// link bandwidth in the key; latency-only cells (LinkBandwidth 0, including
// every cell of a pre-contention file) keep the historical key so old and
// new artifacts keep matching.
func key(c cell) string {
	k := fmt.Sprintf("%s/%s@%g", c.Workload, c.Variant, c.Scale)
	if c.LinkBandwidth > 0 {
		k += fmt.Sprintf("+lbw%d", c.LinkBandwidth)
	}
	return k
}

// qdelayCol renders the carried (never gated) queuing-delay column for a
// cell that has the telemetry on either side of the diff.
func qdelayCol(o, n cell, haveOld bool) string {
	if o.QueueDelayPerMsg == 0 && n.QueueDelayPerMsg == 0 {
		return ""
	}
	if !haveOld {
		return fmt.Sprintf("  qdelay/msg %.1f", n.QueueDelayPerMsg)
	}
	return fmt.Sprintf("  qdelay/msg %.1f -> %.1f", o.QueueDelayPerMsg, n.QueueDelayPerMsg)
}

func main() {
	threshold := flag.Float64("threshold", 0.10, "maximum tolerated cycles/s regression per cell (0.10 = 10%)")
	allocThreshold := flag.Float64("alloc-threshold", 0.25, "maximum tolerated allocs/run and bytes/run growth per cell (0.25 = 25%)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold f] [-alloc-threshold f] OLD NEW (files or directories)")
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	oldF, oldPath, err := load(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	newF, newPath, err := load(flag.Arg(1))
	if err != nil {
		fail(err)
	}
	if oldF.Quick != newF.Quick {
		fail(fmt.Errorf("quick flags differ (%v vs %v): rates not comparable", oldF.Quick, newF.Quick))
	}
	if oldF.Clusters != newF.Clusters {
		// Scheduler changed between artifacts (e.g. a v1 serial baseline vs
		// a v2 parallel run): the ~2.5x scheduler delta would drown any core
		// regression, so there is nothing sound to gate on. Skip rather than
		// fail — the next run compares like against like.
		fmt.Printf("benchdiff: cluster counts differ (%d vs %d): schedulers not comparable, skipping diff\n",
			oldF.Clusters, newF.Clusters)
		return
	}
	fmt.Printf("benchdiff: %s -> %s (cycles/s threshold %.0f%%, allocs and bytes threshold %.0f%%)\n",
		oldPath, newPath, *threshold*100, *allocThreshold*100)
	if regressed := diff(os.Stdout, oldF, newF, *threshold, *allocThreshold); regressed > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d cell(s) regressed beyond the thresholds (cycles/s %.0f%%, allocs and bytes %.0f%%)\n",
			regressed, *threshold*100, *allocThreshold*100)
		os.Exit(1)
	}
	fmt.Println("benchdiff: no regression beyond thresholds")
}

// growth is new/old - 1, or 0 when old is 0 (a file without the column
// never fails the gate).
func growth(old, new uint64) float64 {
	if old == 0 {
		return 0
	}
	return float64(new)/float64(old) - 1
}

// diff writes one line per cell of newF, compared with its match in oldF,
// and returns the number of cells whose cycles/s fell by more than
// threshold or whose allocs/run or bytes/run grew by more than
// allocThreshold.
func diff(w io.Writer, oldF, newF benchFile, threshold, allocThreshold float64) int {
	old := map[string]cell{}
	for _, c := range oldF.Runs {
		old[key(c)] = c
	}
	var keys []string
	cur := map[string]cell{}
	for _, c := range newF.Runs {
		cur[key(c)] = c
		keys = append(keys, key(c))
	}
	sort.Strings(keys)

	regressed := 0
	for _, k := range keys {
		n := cur[k]
		o, ok := old[k]
		if !ok || o.CyclesPerSec <= 0 {
			fmt.Fprintf(w, "  %-36s %12.0f cycles/s  %9d allocs  %11d bytes%s  (new cell)\n",
				k, n.CyclesPerSec, n.AllocsPerRun, n.BytesPerRun, qdelayCol(o, n, false))
			continue
		}
		ratio := n.CyclesPerSec/o.CyclesPerSec - 1
		mark := ""
		if ratio < -threshold {
			mark = "  << REGRESSION"
		}
		// Allocation gates: a v1 artifact without alloc data (0) never fails.
		allocDelta, bytesDelta := growth(o.AllocsPerRun, n.AllocsPerRun), growth(o.BytesPerRun, n.BytesPerRun)
		if allocDelta > allocThreshold {
			mark += "  << ALLOC REGRESSION"
		}
		if bytesDelta > allocThreshold {
			mark += "  << BYTES REGRESSION"
		}
		if mark != "" {
			regressed++
		}
		fmt.Fprintf(w, "  %-36s %12.0f -> %12.0f cycles/s  %+6.1f%%  %9d -> %9d allocs  %+6.1f%%  %11d -> %11d bytes  %+6.1f%%%s%s\n",
			k, o.CyclesPerSec, n.CyclesPerSec, ratio*100, o.AllocsPerRun, n.AllocsPerRun, allocDelta*100,
			o.BytesPerRun, n.BytesPerRun, bytesDelta*100, qdelayCol(o, n, true), mark)
	}
	for k := range old {
		if _, ok := cur[k]; !ok {
			fmt.Fprintf(w, "  %-36s dropped from grid\n", k)
		}
	}
	return regressed
}
