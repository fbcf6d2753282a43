// Command perfbench is the repository's performance benchmark. Each run
// executes one named workload from a single process, measures it for a
// fixed time budget, checks every output it produced, and prints one JSON
// result object as the last line of standard output.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash perfbench/run.sh --workload sim-grid --seed 1 --seconds 40 --trace 0
//
// --trace 0 reports the end-to-end metrics (setup_s, wall_s, cpu_s,
// alloc_mb, sim_mips, campaign_p50_ms, campaign_p90_ms); --trace 1 runs the
// separate traced variant, which records spans around every call into a
// layer, profiles the run, and reports the per-layer metrics. README.md in
// this directory lists the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// params is one benchmark invocation.
type params struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// short shrinks every workload's inputs so the benchmark's own tests
	// can run each workload end to end in seconds.
	short bool
	// work is a directory the run may write into (server caches, profiles,
	// span dumps); the run removes what it creates there except the span
	// dump.
	work string
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its runner. A runner records on
// the report the metrics of the run (end-to-end or per-layer, by p.trace)
// and every operation it attempted; a wrong output is a failed operation,
// a returned error a failure of the benchmark itself.
var workloads = map[string]func(p params, out *report) error{
	"sim-grid":       runSimGrid,
	"litmus-oracle":  runLitmusOracle,
	"campaign-mixed": runCampaignMixed,
}

func main() {
	name := flag.String("workload", "", "workload to run: sim-grid, litmus-oracle or campaign-mixed")
	seed := flag.Int64("seed", 1, "workload seed; sim-grid and campaign-mixed generate their inputs from it")
	seconds := flag.Float64("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	work := flag.String("work", ".bench_build", "directory the run may write into")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload sim-grid|litmus-oracle|campaign-mixed, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	dir, err := filepath.Abs(*work)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	p := params{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		work:    dir,
	}
	rep := newReport(os.Stdout)
	if err := run(p, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
