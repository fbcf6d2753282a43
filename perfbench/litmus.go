package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"invisifence/internal/consistency"
	"invisifence/internal/crossval"
	"invisifence/internal/fencesearch"
	"invisifence/internal/isa"
	"invisifence/internal/litmus"
	"invisifence/internal/runcache"
	"invisifence/internal/staticfence"
)

// litmus-oracle: the full-corpus static-vs-dynamic fence cross-validation
// (what `staticfence -crossval` answers), one corpus query per litmus test,
// one worker. Thousands of tiny jittered simulations: the cost is system
// construction and garbage collection, not the cycle loop. Its inputs are
// the fixed corpus, so the seed does not apply.

// crossvalSeeds is the interleaving sweep width, crossval's default.
const crossvalSeeds = 48

// expectedClasses pins each corpus query's cell classification, recorded
// on the tree that introduced the benchmark (see TestExpected); the
// corpus summary is 124 match, 45 static-conservative, 0 violations and
// 13 skipped.
//
//go:embed expected/litmus-oracle.json
var expectedClassesJSON []byte

// warmupTest is the query each set-up repetition runs, so lazy
// initialization and heap growth finish before timing.
const warmupTest = "CoRR"

func corpusTests(p params) []string {
	if p.short {
		return []string{"CoRR", "RMW", "SB+F"}
	}
	var names []string
	for _, t := range litmus.Tests {
		names = append(names, t.Name)
	}
	return names
}

// classCounts tallies a query's cells by class.
func classCounts(rep *crossval.Report) map[string]int {
	out := map[string]int{}
	for class, n := range rep.Counts() {
		out[string(class)] = n
	}
	return out
}

// query runs one corpus query with the given evaluation cache (nil: a
// fresh one, as crossval uses by default) and returns its report and the number of
// litmus runs it simulated: every evaluation the search simulated, plus
// the re-verification of every static fence set, each a sweep of
// crossvalSeeds runs.
func query(test string, cache *runcache.Cache) (*crossval.Report, uint64, error) {
	if cache == nil {
		var err error
		if cache, err = runcache.Open(""); err != nil {
			return nil, 0, err
		}
	}
	before := cache.Stats().Puts
	rep, err := crossval.Run(crossval.Options{Seeds: crossvalSeeds, Workers: 1, Cache: cache, Tests: []string{test}})
	if err != nil {
		return nil, 0, err
	}
	runs := cache.Stats().Puts - before
	for _, c := range rep.Cells {
		if c.Class != crossval.ClassSkipped {
			runs += uint64(len(c.StaticMinimal))
		}
	}
	return rep, runs * crossvalSeeds, nil
}

// checkQuery counts one operation: the query's classification must equal
// the pinned one (nil want: only that no cell is a soundness violation).
func checkQuery(rep *report, test string, r *crossval.Report, want map[string]map[string]int) {
	got := classCounts(r)
	if v := got[string(crossval.ClassViolation)]; v > 0 {
		rep.op(false, "%s: %d soundness violations", test, v)
		return
	}
	if want != nil {
		w := want[test]
		same := len(w) == len(got)
		for k, n := range w {
			same = same && got[k] == n
		}
		if !same {
			rep.op(false, "%s: classes %v, expected %v", test, got, w)
			return
		}
	}
	rep.op(true, "")
}

func expectedClasses() (map[string]map[string]int, error) {
	var want map[string]map[string]int
	if err := json.Unmarshal(expectedClassesJSON, &want); err != nil {
		return nil, fmt.Errorf("expected classes: %w", err)
	}
	return want, nil
}

func runLitmusOracle(p params, rep *report) error {
	// One P: a second lets the concurrent GC's share of this GC-bound
	// workload land on the neighbouring core (README.md: Workloads).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tests := corpusTests(p)
	want, err := expectedClasses()
	if err != nil {
		return err
	}
	_, setups, err := repeatSetup(setupReps, func() (*crossval.Report, error) {
		r, _, err := query(warmupTest, nil)
		return r, err
	}, nil)
	if err != nil {
		return err
	}
	if p.trace {
		return traceLitmus(p, rep, tests, want)
	}
	var lat []time.Duration
	passes, err := timed(p.seconds, func(int) (pass, error) {
		var (
			l    []time.Duration
			runs uint64
		)
		totals := map[string]int{}
		start := now()
		for _, t := range tests {
			q := time.Now()
			r, n, err := query(t, nil)
			if err != nil {
				return pass{}, err
			}
			l = append(l, time.Since(q))
			runs += n
			checkQuery(rep, t, r, want)
			for k, c := range classCounts(r) {
				totals[k] += c
			}
		}
		ps := since(start)
		ps.simulated = runs
		lat = append(lat, l...)
		rep.logf("corpus summary: %d match, %d static-conservative, %d violations, %d skipped; %d litmus runs",
			totals[string(crossval.ClassMatch)], totals[string(crossval.ClassConservative)],
			totals[string(crossval.ClassViolation)], totals[string(crossval.ClassSkipped)], runs)
		return ps, nil
	})
	if err != nil {
		return err
	}
	rep.endToEnd(setups, passes, lat)
	return nil
}

// traceLitmus times one untraced corpus pass, then runs traced passes in
// which each query is assembled from its layers: the static analysis per
// model, the dynamic fence search, and the cross-validation itself (whose
// dynamic search is then answered from the search's cache).
func traceLitmus(p params, rep *report, tests []string, want map[string]map[string]int) error {
	start := time.Now()
	for _, t := range tests {
		r, _, err := query(t, nil)
		if err != nil {
			return err
		}
		checkQuery(rep, t, r, want)
	}
	untraced := time.Since(start)

	tr, err := startTrace()
	if err != nil {
		return err
	}
	var c searchCounts
	begin := time.Now()
	passes, err := timed(p.seconds, func(int) (pass, error) {
		for _, name := range tests {
			if err := tracedQuery(tr.tracer, rep, name, want, &c); err != nil {
				return pass{}, err
			}
		}
		return pass{}, nil
	})
	wall := time.Since(begin)
	if err := tr.stop(); err != nil {
		return err
	}
	if err != nil {
		return err
	}
	n := float64(len(passes))
	searchS, _ := tr.stats("fencesearch.search")
	rep.set("staticfence.analyze_ms", tr.meanMillis("staticfence.analyze"), "ms")
	rep.set("fencesearch.search_s", searchS.Seconds()/n, "s")
	rep.set("fencesearch.evaluations", float64(c.evals)/n, "count")
	rep.set("fencesearch.simulated_runs", float64(c.runs)/n, "count")
	rep.set("fencesearch.cache_hits", float64(c.hits)/n, "count")
	if c.runs > 0 {
		rep.set("litmus.us_per_run", searchS.Seconds()*1e6/float64(c.runs), "us")
	}
	// crossval builds its systems internally, so construction time per
	// run comes from the profile: cumulative sim.New time over every
	// simulated run (search and re-verification).
	if total := c.runs + c.verifyRuns; total > 0 {
		rep.set("sim.new_ms", cumulative(tr.samples, "invisifence/internal/sim.New")*1e3/float64(total), "ms")
	}
	return tr.finish(rep, p, "litmus-oracle", len(passes), wall, untraced)
}

// searchCounts sums the traced queries' search traffic.
type searchCounts struct {
	evals, hits, runs uint64 // from fencesearch.Result
	verifyRuns        uint64 // crossval's re-verification runs
}

func tracedQuery(tr *tracer, rep *report, name string, want map[string]map[string]int, c *searchCounts) error {
	q := tr.begin("query", name, 0)
	defer tr.end(q)
	var test litmus.Test
	for _, t := range litmus.Tests {
		if t.Name == name {
			test = t
		}
	}
	cache, err := runcache.Open("")
	if err != nil {
		return err
	}
	if test.Target != nil {
		bodies := litmus.BodyPrograms(test, isa.NoFences)
		seen := map[consistency.Model]bool{}
		for _, spec := range litmus.AllConfigs() {
			if seen[spec.Model] {
				continue
			}
			seen[spec.Model] = true
			id := tr.begin("staticfence.analyze", name, q)
			_, err := staticfence.Analyze(name, bodies, spec.Model, staticfence.LitmusLayout())
			tr.end(id)
			if err != nil {
				return err
			}
		}
		id := tr.begin("fencesearch.search", name, q)
		res, err := fencesearch.Search(fencesearch.Query{Test: name},
			fencesearch.Options{Seeds: crossvalSeeds, Workers: 1, Cache: cache})
		tr.end(id)
		if err != nil {
			return err
		}
		c.evals += uint64(res.Evals)
		c.hits += uint64(res.CacheHits)
		c.runs += uint64(res.Runs)
	}
	// The search above filled the cache, so the runs this query
	// simulates are the re-verification of the static fence sets.
	id := tr.begin("crossval.run", name, q)
	r, n, err := query(name, cache)
	tr.end(id)
	if err != nil {
		return err
	}
	c.verifyRuns += n
	checkQuery(rep, name, r, want)
	return nil
}
