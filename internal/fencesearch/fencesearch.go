// Package fencesearch searches the fence-placement lattice of a litmus
// program for minimal fence sets that forbid a target outcome, using the
// simulator as the correctness oracle.
//
// This inverts the repo's usual direction: instead of checking that a given
// implementation never produces a model-forbidden outcome, the search asks
// which fences a *program* needs so that a weak implementation never
// produces it. Candidate placements are subsets of the per-thread fence
// sites enumerated by isa.FenceSites; the lattice is explored bottom-up
// (all sets of size k before any of size k+1) with superset pruning, so
// every reported set is minimal by construction: a superset of a sufficient
// set is never evaluated, and every strict subset of a reported set was
// evaluated at a smaller level and found insufficient.
//
// Each candidate evaluation runs the litmus harness exhaustively across
// seeds (network jitter, start skew, variable placement) under the target
// implementation; "sufficient" means the target outcome appears in zero
// runs. Evaluations fan out over the internal/sweep worker pool with
// deterministic result ordering, and each resolves through
// runcache.Resolve under a content-addressed key of the fenced programs
// themselves: concurrent evaluations of one key simulate once, and a
// repeated query performs zero simulations.
package fencesearch

import (
	"fmt"
	"strings"
	"sync"

	"invisifence/internal/consistency"
	"invisifence/internal/isa"
	"invisifence/internal/litmus"
	"invisifence/internal/runcache"
	"invisifence/internal/sim"
	"invisifence/internal/staticfence"
	"invisifence/internal/sweep"
)

// evalVersion is folded into every evaluation cache key; bump when the
// harness or the meaning of a cached evaluation changes.
const evalVersion = "fencesearch/eval/v1"

// Input is a program-level search problem: thread bodies (unfenced), the
// outcome protocol, and the target outcome to forbid.
type Input struct {
	Name   string
	Slots  int   // register-result outcome slots
	Finals []int // shared-var indices appended as outcome slots
	Bodies []*isa.Program
	Target litmus.OutcomeSpec
	Jitter uint64 // harness jitter override (0 = suite default)
	// Canonical marks Target as the test's canonical SC-forbidden outcome
	// (set by Search). Static delay-set pruning is only sound for such
	// targets: internal/staticfence proves "all executions are SC", which
	// says nothing about outcomes SC itself allows.
	Canonical bool
}

// Options configures a search.
type Options struct {
	// Seeds is the interleaving sweep width per evaluation (default 48).
	Seeds int
	// MaxFences caps the candidate set size (0 = the full lattice).
	MaxFences int
	// Workers bounds evaluation concurrency on the sweep pool (default 1).
	Workers int
	// Cache dedupes evaluations; nil uses a fresh in-memory cache (still
	// exercised, so traffic stats are always meaningful).
	Cache *runcache.Cache
	// Prune seeds the lattice walk with the static delay-set analysis
	// (internal/staticfence): statically-forbidden implementations skip
	// their baseline sweep, candidate sites off every critical cycle are
	// never combined, and candidates that provably cover the delay set are
	// answered sufficient without simulating. Reports stay byte-identical
	// to the unpruned walk (the equivalence is pinned by test over the
	// corpus); only the traffic counters change. Ignored unless the input
	// is a canonical corpus query the analyzer accepts (straight-line
	// litmus-protocol bodies).
	Prune bool
}

// ModelResult is the search outcome under one implementation.
type ModelResult struct {
	// Config names the litmus implementation searched.
	Config string
	// BaselineMatches counts target-outcome runs with no fences inserted.
	BaselineMatches int
	// AlreadyForbidden: the empty set suffices (the implementation never
	// produced the target across the sweep); Minimal is then empty.
	AlreadyForbidden bool
	// Minimal lists the minimal sufficient fence sets, each sorted by
	// (thread, pc), in discovery order (by size, then lexicographic).
	// Mutually incomparable by construction.
	Minimal [][]isa.Site
	// Evals counts candidate evaluations for this config (incl. baseline
	// and, under Options.Prune, candidates answered statically).
	Evals int
}

// Result is a full search report.
type Result struct {
	// Name and Target restate the query.
	Name   string
	Target litmus.OutcomeSpec
	// Seeds is the per-evaluation sweep width.
	Seeds int
	// Sites is the global candidate list (isa.Sites); minimal sets index
	// into it conceptually (they carry the sites directly).
	Sites []isa.Site
	// SiteText disassembles the instruction each site precedes.
	SiteText []string
	// Models holds one entry per searched implementation, in query order.
	Models []ModelResult
	// Evals / Simulated / CacheHits / Runs are traffic totals: candidate
	// evaluations, evaluations that actually simulated, evaluations served
	// from the cache or shared with a concurrent evaluation of the same
	// key, and individual simulator runs executed. Static counts
	// evaluations answered by the delay-set certificate without touching
	// the simulator or the cache (always 0 unless Pruned).
	Evals     int
	Simulated int
	CacheHits int
	Runs      int
	Static    int
	// Pruned reports that the static delay-set analysis steered this walk.
	Pruned bool
}

// evalOutcome is the cached result of one candidate evaluation.
type evalOutcome struct {
	Runs    int `json:"runs"`
	Matches int `json:"matches"`
}

// progKey is the JSON-encodable identity of a program for cache keying:
// the exact instruction stream (names and labels excluded — two
// identically-shaped programs share evaluations).
func progKey(p *isa.Program) []isa.Instr { return p.Instrs }

type searcher struct {
	in    Input
	specs []litmus.ConfigSpec
	opts  Options
	sites []isa.Site
	cache *runcache.Cache

	mu        sync.Mutex
	simulated int
	cacheHits int
	runs      int
	static    int // delay-set-certified evaluations (never simulated)
}

// job is one candidate evaluation: a config index and a site-index subset.
type job struct {
	cfg  int
	comb []int // indices into searcher.sites, ascending
}

// SearchInput runs the search over explicit thread bodies. The specs list
// the implementations to search, in report order.
func SearchInput(in Input, specs []litmus.ConfigSpec, opts Options) (*Result, error) {
	if len(in.Bodies) == 0 {
		return nil, fmt.Errorf("fencesearch: no thread bodies")
	}
	if len(in.Bodies) > 4 {
		return nil, fmt.Errorf("fencesearch: %d threads exceeds the 4-node litmus machine", len(in.Bodies))
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("fencesearch: no implementations to search")
	}
	if n := in.Slots + len(in.Finals); n == 0 || n > 4 {
		return nil, fmt.Errorf("fencesearch: outcome width %d out of range [1,4]", n)
	}
	if len(in.Target) == 0 {
		return nil, fmt.Errorf("fencesearch: empty target outcome")
	}
	if opts.Seeds <= 0 {
		opts.Seeds = 48
	}
	s := &searcher{in: in, specs: specs, opts: opts, cache: opts.Cache}
	if s.cache == nil {
		c, err := runcache.Open("")
		if err != nil {
			return nil, err
		}
		s.cache = c
	}
	s.sites = isa.Sites(in.Bodies)
	return s.run()
}

// pruner is the optional static delay-set steering of one walk: per-config
// analysis results (shared per model) plus the site-index filter.
type pruner struct {
	static  []*staticfence.Result // per spec index
	allowed []bool                // per site index: cuts a critical-cycle po pair
}

// newPruner runs the static analysis when pruning is requested and sound
// for this input; any analyzer refusal (branches, non-protocol addressing)
// falls back to the unpruned walk.
func (s *searcher) newPruner() *pruner {
	if !s.opts.Prune || !s.in.Canonical {
		return nil
	}
	byModel := map[consistency.Model]*staticfence.Result{}
	p := &pruner{static: make([]*staticfence.Result, len(s.specs))}
	for i, spec := range s.specs {
		sr, ok := byModel[spec.Model]
		if !ok {
			var err error
			sr, err = staticfence.Analyze(s.in.Name, s.in.Bodies, spec.Model, staticfence.LitmusLayout())
			if err != nil {
				return nil
			}
			byModel[spec.Model] = sr
		}
		p.static[i] = sr
	}
	// Critical cycles (hence WalkSites) are model-independent; any entry
	// serves.
	walk := map[isa.Site]bool{}
	for _, ws := range p.static[0].WalkSites() {
		walk[ws] = true
	}
	p.allowed = make([]bool, len(s.sites))
	for i, site := range s.sites {
		p.allowed[i] = walk[site]
	}
	return p
}

// allows reports whether every site of the candidate cuts some critical
// cycle.
func (p *pruner) allows(comb []int) bool {
	for _, idx := range comb {
		if !p.allowed[idx] {
			return false
		}
	}
	return true
}

// entry is one lattice candidate of a level, in walk order; static entries
// are answered by the delay-set certificate instead of the sweep pool.
type entry struct {
	cfg    int
	comb   []int
	static bool
}

func (s *searcher) run() (*Result, error) {
	res := &Result{
		Name:   s.in.Name,
		Target: s.in.Target,
		Seeds:  s.opts.Seeds,
		Sites:  s.sites,
		Models: make([]ModelResult, len(s.specs)),
	}
	for _, site := range s.sites {
		res.SiteText = append(res.SiteText, s.in.Bodies[site.Thread].Instrs[site.PC].String())
	}
	prune := s.newPruner()
	res.Pruned = prune != nil

	// Level 0: the unfenced baseline under every implementation.
	// Statically-forbidden configs need no sweep: soundness (pinned by
	// internal/crossval over the corpus) guarantees zero matches.
	var base []job
	active := make([]bool, len(s.specs))
	for i := range s.specs {
		if prune != nil && prune.static[i].AlreadyForbidden() {
			res.Models[i] = ModelResult{Config: s.specs[i].Name, AlreadyForbidden: true, Evals: 1}
			s.static++
			continue
		}
		base = append(base, job{cfg: i})
	}
	baseRes, err := s.evalBatch(base)
	if err != nil {
		return nil, err
	}
	for i, r := range baseRes {
		ci := base[i].cfg
		res.Models[ci] = ModelResult{Config: s.specs[ci].Name, BaselineMatches: r.Matches, Evals: 1}
		if r.Matches == 0 {
			res.Models[ci].AlreadyForbidden = true
		} else {
			active[ci] = true
		}
	}

	maxK := len(s.sites)
	if s.opts.MaxFences > 0 && s.opts.MaxFences < maxK {
		maxK = s.opts.MaxFences
	}
	// minimal[i] holds config i's found sets as site-index slices.
	minimal := make([][][]int, len(s.specs))
	for k := 1; k <= maxK; k++ {
		var entries []entry
		for ci := range s.specs {
			if !active[ci] {
				continue
			}
			for _, comb := range combinations(len(s.sites), k) {
				if prune != nil && !prune.allows(comb) {
					continue // off every critical cycle: cannot matter
				}
				if containsAnySet(comb, minimal[ci]) {
					continue // superset of a sufficient set: never minimal
				}
				// A candidate that provably covers the config's delay set
				// cannot admit the target: no need to simulate it.
				entries = append(entries, entry{cfg: ci, comb: comb,
					static: prune != nil && prune.static[ci].Sufficient(s.sitesOf(comb))})
			}
		}
		if len(entries) == 0 {
			break
		}
		var jobs []job
		for _, e := range entries {
			if !e.static {
				jobs = append(jobs, job{cfg: e.cfg, comb: e.comb})
			}
		}
		results, err := s.evalBatch(jobs)
		if err != nil {
			return nil, err
		}
		ji := 0
		for _, e := range entries {
			matches := 0
			if e.static {
				s.static++
			} else {
				matches = results[ji].Matches
				ji++
			}
			res.Models[e.cfg].Evals++
			if matches == 0 {
				minimal[e.cfg] = append(minimal[e.cfg], e.comb)
				res.Models[e.cfg].Minimal = append(res.Models[e.cfg].Minimal, s.sitesOf(e.comb))
			}
		}
	}

	for i := range res.Models {
		res.Evals += res.Models[i].Evals
	}
	res.Simulated = s.simulated
	res.CacheHits = s.cacheHits
	res.Runs = s.runs
	res.Static = s.static
	return res, nil
}

// sitesOf maps site indices to Sites.
func (s *searcher) sitesOf(comb []int) []isa.Site {
	out := make([]isa.Site, len(comb))
	for i, idx := range comb {
		out[i] = s.sites[idx]
	}
	return out
}

// evalBatch fans candidate evaluations out over the sweep pool; results
// come back in job order regardless of worker count.
func (s *searcher) evalBatch(jobs []job) ([]evalOutcome, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	workers := s.opts.Workers
	if workers < 1 {
		workers = 1
	}
	return sweep.Run(jobs, sweep.Options{Workers: workers}, s.evaluate)
}

// evaluate runs one candidate: insert the fences, then resolve the
// evaluation through the cache, simulating only on a miss.
func (s *searcher) evaluate(j job) (evalOutcome, error) {
	spec := s.specs[j.cfg]
	set := s.sitesOf(j.comb)
	bodies, err := isa.FenceSet(s.in.Bodies, set)
	if err != nil {
		return evalOutcome{}, err
	}
	keyProgs := make([][]isa.Instr, len(bodies))
	for t, b := range bodies {
		keyProgs[t] = progKey(b)
	}
	key := runcache.MustKey(evalVersion, spec.Name, spec.Model, spec.Engine,
		s.opts.Seeds, s.in.Jitter, s.in.Target, s.in.Slots, s.in.Finals, keyProgs)
	out, origin, err := runcache.Resolve(s.cache, key, func() (evalOutcome, error) {
		h := litmus.Harness{
			Name:   fmt.Sprintf("%s%v", s.in.Name, set),
			Slots:  s.in.Slots,
			Finals: s.in.Finals,
			Bodies: bodies,
			Jitter: s.in.Jitter,
		}
		hist := h.Sweep(spec, s.opts.Seeds)
		return evalOutcome{Runs: s.opts.Seeds, Matches: litmus.CountMatches(hist, s.in.Target)}, nil
	})
	if err != nil {
		return evalOutcome{}, err
	}
	s.mu.Lock()
	if origin == runcache.Computed {
		s.simulated++
		s.runs += out.Runs
	} else {
		s.cacheHits++
	}
	s.mu.Unlock()
	return out, nil
}

// combinations enumerates the k-subsets of [0,n) in lexicographic order.
func combinations(n, k int) [][]int {
	if k > n || k < 0 {
		return nil
	}
	var out [][]int
	comb := make([]int, k)
	for i := range comb {
		comb[i] = i
	}
	for {
		out = append(out, append([]int(nil), comb...))
		// Advance: find the rightmost slot that can move.
		i := k - 1
		for i >= 0 && comb[i] == n-k+i {
			i--
		}
		if i < 0 {
			return out
		}
		comb[i]++
		for j := i + 1; j < k; j++ {
			comb[j] = comb[j-1] + 1
		}
	}
}

// containsAnySet reports whether comb (ascending) is a superset of any of
// the given sets (each ascending).
func containsAnySet(comb []int, sets [][]int) bool {
	for _, set := range sets {
		if isSubset(set, comb) {
			return true
		}
	}
	return false
}

// isSubset reports a ⊆ b for ascending index slices.
func isSubset(a, b []int) bool {
	i := 0
	for _, v := range b {
		if i < len(a) && a[i] == v {
			i++
		}
	}
	return i == len(a)
}

// Query is a corpus-level search request.
type Query struct {
	// Test names a litmus.Tests entry.
	Test string
	// Target overrides the test's canonical SC-forbidden outcome.
	Target litmus.OutcomeSpec
	// Configs names the implementations to search (nil = all).
	Configs []string
	// Jitter overrides the harness jitter (0 = suite default).
	Jitter uint64
}

// Search resolves a corpus query and runs SearchInput on the test's
// unfenced bodies.
func Search(q Query, opts Options) (*Result, error) {
	var tt *litmus.Test
	for i := range litmus.Tests {
		if litmus.Tests[i].Name == q.Test {
			tt = &litmus.Tests[i]
			break
		}
	}
	if tt == nil {
		return nil, fmt.Errorf("fencesearch: unknown litmus test %q", q.Test)
	}
	target := q.Target
	if target == nil {
		target = tt.Target
	}
	if target == nil {
		return nil, fmt.Errorf("fencesearch: test %q has no canonical target; pass one explicitly", q.Test)
	}
	specs, err := resolveConfigs(q.Configs)
	if err != nil {
		return nil, err
	}
	in := Input{
		Name:      tt.Name,
		Slots:     tt.Slots,
		Finals:    tt.FinalVars,
		Bodies:    litmus.BodyPrograms(*tt, isa.NoFences),
		Target:    target,
		Jitter:    q.Jitter,
		Canonical: specEqual(target, tt.Target),
	}
	return SearchInput(in, specs, opts)
}

// specEqual compares outcome specs slot-for-slot.
func specEqual(a, b litmus.OutcomeSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// resolveConfigs maps implementation names onto litmus specs through the
// catalogue, preserving order; nil selects every implementation.
func resolveConfigs(names []string) ([]litmus.ConfigSpec, error) {
	if len(names) == 0 {
		return litmus.AllConfigs(), nil
	}
	specs := make([]litmus.ConfigSpec, len(names))
	for i, name := range names {
		spec, err := sim.LookupImplementation(name)
		if err != nil {
			return nil, fmt.Errorf("fencesearch: %w", err)
		}
		specs[i] = spec
	}
	return specs, nil
}

// Report renders the deterministic section of a result: the query, the
// site table, and per-model minimal sets. Cache and simulation traffic —
// including evaluation counts, which depend on whether the walk was
// statically pruned — is deliberately excluded: the report is byte-
// identical between cold, warm, and pruned runs of the same query, so it
// can be pinned as a golden file and diffed by CI.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fencesearch: %s target=%v seeds=%d sites=%d\n",
		r.Name, r.Target, r.Seeds, len(r.Sites))
	for i, site := range r.Sites {
		fmt.Fprintf(&b, "  s%-2d %v: %s\n", i, site, r.SiteText[i])
	}
	for _, m := range r.Models {
		fmt.Fprintf(&b, "== %s ==\n", m.Config)
		switch {
		case m.AlreadyForbidden:
			fmt.Fprintf(&b, "  already forbidden unfenced (0/%d runs match)\n", r.Seeds)
		case len(m.Minimal) == 0:
			fmt.Fprintf(&b, "  no sufficient fence set found (baseline %d/%d)\n",
				m.BaselineMatches, r.Seeds)
		default:
			fmt.Fprintf(&b, "  baseline admits target (%d/%d runs); %d minimal set(s)\n",
				m.BaselineMatches, r.Seeds, len(m.Minimal))
			for _, set := range m.Minimal {
				fmt.Fprintf(&b, "  {%s}\n", joinSites(set, r))
			}
		}
	}
	return b.String()
}

// joinSites renders a fence set with its site labels and disassembly.
func joinSites(set []isa.Site, r *Result) string {
	parts := make([]string, len(set))
	for i, site := range set {
		label := site.String()
		for idx, s := range r.Sites {
			if s == site {
				label = fmt.Sprintf("s%d %v \"%s\"", idx, site, r.SiteText[idx])
				break
			}
		}
		parts[i] = label
	}
	return strings.Join(parts, ", ")
}

// TrafficString renders the nondeterministic traffic counters (varies with
// cache warmth; printed to stderr by the CLI, never part of Report).
func (r *Result) TrafficString() string {
	return fmt.Sprintf("fencesearch: %d evaluations, %d simulated (%d runs), %d cache hits, %d static",
		r.Evals, r.Simulated, r.Runs, r.CacheHits, r.Static)
}
