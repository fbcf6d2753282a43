// Command fencesearch searches the fence-placement lattice of a litmus
// program for minimal fence sets that forbid a target outcome, using the
// simulator as the correctness oracle.
//
// The deterministic report (query, candidate sites, per-implementation
// minimal sets and evaluation counts) goes to stdout; cache/simulation
// traffic counters go to stderr, so two runs of the same query produce
// byte-identical stdout regardless of cache warmth.
//
// Usage:
//
//	fencesearch -test SB -configs rmo          # classic two-fence answer
//	fencesearch -test MP                       # all implementations
//	fencesearch -test MP -target '1,0'         # explicit outcome (Any = ?)
//	fencesearch -test SB -cache .litmus-cache  # persistent dedupe across runs
//	fencesearch -list                          # searchable tests + configs
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"invisifence/internal/fencesearch"
	"invisifence/internal/litmus"
	"invisifence/internal/runcache"
	"invisifence/internal/sim"
)

func main() {
	test := flag.String("test", "", "litmus test to search (required unless -list)")
	target := flag.String("target", "", "target outcome as comma-separated slot values, ? = any (default: the test's canonical SC-forbidden outcome)")
	configs := flag.String("configs", "", "comma-separated implementations to search; empty = all")
	seeds := flag.Int("seeds", 48, "interleaving seeds per candidate evaluation")
	maxFences := flag.Int("max-fences", 0, "cap candidate set size; 0 = full lattice")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent candidate evaluations")
	cacheDir := flag.String("cache", "", "evaluation cache directory; empty = in-memory only")
	prune := flag.Bool("prune", false, "steer the walk with the static delay-set analysis (same report, fewer simulations)")
	list := flag.Bool("list", false, "list searchable tests and implementations")
	flag.Parse()

	if *list {
		fmt.Println("tests:")
		for _, t := range litmus.Tests {
			if t.Target == nil {
				continue
			}
			fmt.Printf("  %-6s target=%v\n", t.Name, t.Target)
		}
		fmt.Println("configs:")
		for _, name := range sim.ImplementationNames() {
			fmt.Printf("  %s\n", name)
		}
		return
	}
	if *test == "" {
		flag.Usage()
		os.Exit(2)
	}

	q := fencesearch.Query{Test: *test}
	if *target != "" {
		spec, err := parseTarget(*target)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		q.Target = spec
	}
	if *configs != "" {
		q.Configs = strings.Split(*configs, ",")
	}

	opts := fencesearch.Options{Seeds: *seeds, MaxFences: *maxFences, Workers: *workers, Prune: *prune}
	if *cacheDir != "" {
		c, err := runcache.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts.Cache = c
	}

	res, err := fencesearch.Search(q, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Print(res.Report())
	fmt.Fprintln(os.Stderr, res.TrafficString())
}

// parseTarget decodes "1,0" / "1,?" into an OutcomeSpec.
func parseTarget(s string) (litmus.OutcomeSpec, error) {
	parts := strings.Split(s, ",")
	spec := make(litmus.OutcomeSpec, len(parts))
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "?" || p == "*" {
			spec[i] = litmus.Any
			continue
		}
		v, err := strconv.ParseInt(p, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("fencesearch: bad target slot %q: %v", p, err)
		}
		spec[i] = v
	}
	return spec, nil
}
