// Command staticfence runs the static fence-inference analyzer
// (critical-cycle / delay-set analysis) over the litmus corpus, and
// optionally cross-validates it against the dynamic simulator oracle.
//
// The report is fully deterministic (stdout); in -crossval mode the
// dynamic search's cache/simulation traffic goes to stderr, so two runs of
// the same query produce byte-identical stdout regardless of cache warmth.
// A crossval run with soundness violations exits nonzero.
//
// Usage:
//
//	staticfence -test MP -model rmo          # one test, one model
//	staticfence                              # full corpus x {sc,tso,rmo}
//	staticfence -model rc                    # full corpus under rc
//	staticfence -crossval                    # static vs dynamic, all configs
//	staticfence -crossval -cache .litmus-cache
//	staticfence -list                        # analyzable tests + models
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"invisifence/internal/consistency"
	"invisifence/internal/crossval"
	"invisifence/internal/isa"
	"invisifence/internal/litmus"
	"invisifence/internal/runcache"
	"invisifence/internal/staticfence"
)

func main() {
	test := flag.String("test", "", "litmus test to analyze; empty = full corpus")
	model := flag.String("model", "", "memory models, comma-separated ("+modelNames(consistency.Models, ", ")+"); empty = "+modelNames(defaultModels, ", "))
	doCrossval := flag.Bool("crossval", false, "cross-validate against the fencesearch simulator oracle (all implementations)")
	seeds := flag.Int("seeds", 48, "crossval: interleaving seeds per dynamic evaluation")
	workers := flag.Int("workers", runtime.NumCPU(), "crossval: concurrent evaluations")
	cacheDir := flag.String("cache", "", "crossval: evaluation cache directory; empty = in-memory only")
	list := flag.Bool("list", false, "list analyzable tests and models")
	flag.Parse()

	if *list {
		fmt.Println("tests:")
		for _, t := range litmus.Tests {
			fmt.Printf("  %-6s threads=%d\n", t.Name, t.Threads)
		}
		fmt.Println("models:", modelNames(consistency.Models, " "))
		return
	}

	if *doCrossval {
		opts := crossval.Options{Seeds: *seeds, Workers: *workers}
		if *test != "" {
			opts.Tests = strings.Split(*test, ",")
		}
		if *cacheDir != "" {
			c, err := runcache.Open(*cacheDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			opts.Cache = c
		}
		rep, err := crossval.Run(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Print(rep.String())
		if v := rep.Violations(); len(v) > 0 {
			fmt.Fprintf(os.Stderr, "staticfence: %d soundness violation(s)\n", len(v))
			os.Exit(1)
		}
		return
	}

	models, err := parseModels(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, t := range litmus.Tests {
		if *test != "" && t.Name != *test {
			continue
		}
		bodies := litmus.BodyPrograms(t, isa.NoFences)
		for _, m := range models {
			r, err := staticfence.Analyze(t.Name, bodies, m, staticfence.LitmusLayout())
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			fmt.Print(r.Report())
		}
	}
}

// defaultModels is the no-flag report's model set; it predates RC and
// stays as it is so the default report keeps its bytes.
var defaultModels = []consistency.Model{consistency.SC, consistency.TSO, consistency.RMO}

func modelNames(ms []consistency.Model, sep string) string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.String()
	}
	return strings.Join(names, sep)
}

func parseModels(s string) ([]consistency.Model, error) {
	if s == "" {
		return defaultModels, nil
	}
	var out []consistency.Model
	for _, name := range strings.Split(s, ",") {
		key := strings.ToLower(strings.TrimSpace(name))
		n := len(out)
		for _, m := range consistency.Models {
			if m.String() == key {
				out = append(out, m)
			}
		}
		if len(out) == n {
			return nil, fmt.Errorf("staticfence: unknown model %q (have %s)", name, modelNames(consistency.Models, ", "))
		}
	}
	return out, nil
}
