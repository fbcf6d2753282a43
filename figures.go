package invisifence

import (
	"fmt"
	"math"
	"sync"

	"invisifence/internal/consistency"
	"invisifence/internal/runcache"
	"invisifence/internal/stats"
	"invisifence/internal/workload"
)

// ExpOptions configures the figure-regeneration experiments.
type ExpOptions struct {
	// Machine overrides the system model (zero value = DefaultMachine).
	Machine *MachineConfig
	// Workloads restricts the workload set (nil = all seven).
	Workloads []string
	// Seeds lists the run seeds; multiple seeds produce 95% confidence
	// intervals (the SimFlex-sampling stand-in).
	Seeds []int64
	// Scale multiplies workload size.
	Scale float64
	// Parallel runs independent simulations on multiple OS threads (the
	// simulations themselves stay single-threaded and deterministic).
	Parallel int
	// CacheDir roots the persistent result cache shared across
	// processes; "" keeps results in memory only. Figures regenerated
	// twice against the same cache directory re-simulate nothing.
	CacheDir string
}

// DefaultExpOptions returns the options used for EXPERIMENTS.md.
func DefaultExpOptions() ExpOptions {
	return ExpOptions{Seeds: []int64{1, 2, 3}, Scale: 1.0, Parallel: 4}
}

func (o *ExpOptions) fill() {
	if len(o.Workloads) == 0 {
		o.Workloads = Workloads()
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1}
	}
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.Parallel <= 0 {
		o.Parallel = 1
	}
	if o.Machine == nil {
		m := DefaultMachine()
		o.Machine = &m
	}
}

// Campaign runs the simulations behind the figure drivers. Every cell
// resolves through the internal/runcache store keyed by ResultKey, so
// figures sharing configurations (8, 9, 10) reuse results, concurrent
// requests for one cell simulate it once, and with a CacheDir set a
// rerun of AllFigures re-simulates nothing.
type Campaign struct {
	opts     ExpOptions
	pc       *runcache.Cache // persistent layer (memory-only if CacheDir == "")
	cacheErr error           // why CacheDir could not be opened, if it couldn't

	mu        sync.Mutex
	simulated int
}

// NewCampaign creates a result cache for the given options. An unusable
// CacheDir degrades to in-memory caching rather than failing; CacheErr
// reports the degradation.
func NewCampaign(opts ExpOptions) *Campaign {
	opts.fill()
	pc, err := runcache.Open(opts.CacheDir)
	if err != nil {
		pc, _ = runcache.Open("")
	}
	return &Campaign{opts: opts, pc: pc, cacheErr: err}
}

// Options returns the campaign's (filled-in) options.
func (c *Campaign) Options() ExpOptions { return c.opts }

// CacheErr reports why the configured CacheDir could not be opened; it is
// nil when persistence is working (or was never requested). A campaign
// with a non-nil CacheErr still runs, but caches in memory only.
func (c *Campaign) CacheErr() error { return c.cacheErr }

// CacheStats snapshots the persistent cache's traffic counters.
func (c *Campaign) CacheStats() runcache.Stats { return c.pc.Stats() }

// Simulated returns how many simulations this campaign actually executed
// (cells served from the cache or shared with a concurrent request don't
// count).
func (c *Campaign) Simulated() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.simulated
}

// count records one resolved cell.
func (c *Campaign) count(_ Config, origin runcache.Origin) {
	if origin == runcache.Computed {
		c.mu.Lock()
		c.simulated++
		c.mu.Unlock()
	}
}

// cellConfig assembles the full run configuration for one (workload,
// variant, seed) cell; it is also the persistent cache key's content.
func (c *Campaign) cellConfig(wl string, v Variant, seed int64) Config {
	return Config{
		Machine:  *c.opts.Machine,
		Variant:  v,
		Workload: wl,
		Seed:     seed,
		Scale:    c.opts.Scale,
	}
}

// Results returns the per-seed results for one cell, running them if needed.
func (c *Campaign) Results(wl string, v Variant) ([]Result, error) {
	rs := make([]Result, len(c.opts.Seeds))
	for i, seed := range c.opts.Seeds {
		cfg := c.cellConfig(wl, v, seed)
		r, origin, err := resolveCell(c.pc, cfg)
		if err != nil {
			return nil, err
		}
		c.count(cfg, origin)
		rs[i] = r
	}
	return rs, nil
}

// Prefetch runs every (workload, variant, seed) cell on a bounded worker
// pool.
func (c *Campaign) Prefetch(variants []Variant) error {
	var cfgs []Config
	for _, wl := range c.opts.Workloads {
		for _, v := range variants {
			for _, seed := range c.opts.Seeds {
				cfgs = append(cfgs, c.cellConfig(wl, v, seed))
			}
		}
	}
	_, err := resolveCells(c.pc, cfgs, c.opts.Parallel, c.count)
	return err
}

// meanCycles averages cycles across seeds.
func meanCycles(rs []Result) float64 {
	var s float64
	for _, r := range rs {
		s += float64(r.Cycles)
	}
	return s / float64(len(rs))
}

// speedupSummary computes per-seed speedups of rs over base with a CI.
func speedupSummary(base, rs []Result) stats.Summary {
	n := len(base)
	if len(rs) < n {
		n = len(rs)
	}
	samples := make([]float64, n)
	for i := 0; i < n; i++ {
		samples[i] = float64(base[i].Cycles) / float64(rs[i].Cycles)
	}
	return stats.Summarize(samples)
}

// ---------------------------------------------------------------------
// Figure drivers.
// ---------------------------------------------------------------------

// Figure1 reproduces Figure 1: ordering stalls (SB drain and SB full) in
// conventional SC/TSO/RMO as a percent of SC execution time.
func Figure1(c *Campaign) (*Table, error) {
	variants := []Variant{ConventionalVariant(SC), ConventionalVariant(TSO), ConventionalVariant(RMO)}
	if err := c.Prefetch(variants); err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 1: ordering stalls in conventional SC/TSO/RMO (% of SC execution time)",
		Header: []string{"workload", "sc SBdrain", "sc SBfull", "tso SBdrain", "tso SBfull", "rmo SBdrain", "rmo SBfull"},
	}
	for _, wl := range c.opts.Workloads {
		base, err := c.Results(wl, variants[0])
		if err != nil {
			return nil, err
		}
		scTotal := 0.0
		for _, r := range base {
			scTotal += float64(r.Breakdown.Total())
		}
		scTotal /= float64(len(base))
		row := []string{wl}
		for _, v := range variants {
			rs, err := c.Results(wl, v)
			if err != nil {
				return nil, err
			}
			var drain, full float64
			for _, r := range rs {
				drain += float64(r.Breakdown[stats.SBDrain])
				full += float64(r.Breakdown[stats.SBFull])
			}
			drain /= float64(len(rs))
			full /= float64(len(rs))
			row = append(row, pct(drain/scTotal), pct(full/scTotal))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shape: large SC stalls everywhere; TSO keeps atomic/full-buffer stalls; RMO keeps fence stalls in commercial workloads, ~0 in Barnes/Ocean")
	return t, nil
}

// Figure2 reproduces Figure 2: the consistency-model definition and
// conventional-implementation rule table, derived from the ordering
// relation. An instruction must drain the store buffer at retirement
// exactly when the model orders it after an older store; an atomic that
// need not drain still completes its store (waits for write permission).
func Figure2() *Table {
	t := &Table{
		Title:  "Figure 2: consistency models — definitions and conventional implementations",
		Header: []string{"model", "relaxations", "SB organization", "load", "store", "atomic", "full fence"},
	}
	for _, m := range consistency.Models {
		afterStore := func(c consistency.Class) bool { return consistency.Orders(m, consistency.Store, c) }
		load, store, atomic, fence := "-", "-", "complete store", "N/A"
		if afterStore(consistency.Load) {
			load = "drain SB"
		}
		if afterStore(consistency.RelStore) && !afterStore(consistency.Store) {
			store = "drain SB at st.rel"
		}
		if afterStore(consistency.Atomic) {
			atomic = "drain SB"
		}
		// A fence has nothing to order under a model that relaxes no pair.
		for _, a := range consistency.Classes {
			for _, b := range consistency.Classes {
				if !consistency.Orders(m, a, b) && afterStore(consistency.Fence) {
					fence = "drain SB"
				}
			}
		}
		t.AddRow(m.String(), consistency.Relaxations(m), consistency.ConventionalSB(m).String(), load, store, atomic, fence)
	}
	return t
}

// Figure4 reproduces Figure 4: properties of the InvisiFence variants,
// with the measured percent-of-time-speculating range over the workloads.
func Figure4(c *Campaign) (*Table, error) {
	rows := []struct {
		v        Variant
		triggers string
		minChunk string
		snoopsLQ string
	}{
		{SelectiveVariant(RMO), "fences, atomics", "none", "yes"},
		{SelectiveVariant(TSO), "store/atomic reorderings, fences", "none", "yes"},
		{SelectiveVariant(SC), "all memory reorderings", "none", "yes"},
		{ContinuousVariant(false), "continuous chunks", "~100 instructions", "no"},
	}
	t := &Table{
		Title:  "Figure 4: properties of INVISIFENCE variants",
		Header: []string{"variant", "speculates on", "% time speculating", "min chunk", "needs LQ snooping"},
	}
	for _, row := range rows {
		lo, hi := 1.0, 0.0
		for _, wl := range c.opts.Workloads {
			rs, err := c.Results(wl, row.v)
			if err != nil {
				return nil, err
			}
			var f float64
			for _, r := range rs {
				f += r.SpecFraction
			}
			f /= float64(len(rs))
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		t.AddRow(row.v.Name, row.triggers, fmt.Sprintf("%s-%s", pct(lo), pct(hi)), row.minChunk, row.snoopsLQ)
	}
	t.AddNote("paper ranges: rmo 0-10%%, tso 10-40%%, sc 10-50%%, continuous ~100%%")
	return t, nil
}

// Figure6 renders the simulated machine parameters (Figure 6).
func Figure6(m MachineConfig) *Table {
	t := &Table{
		Title:  "Figure 6: simulator parameters",
		Header: []string{"component", "configuration"},
	}
	t.AddRow("cores", fmt.Sprintf("%d-node %dx%d torus, %d-cycle hops", m.Width*m.Height, m.Width, m.Height, m.HopLatency))
	t.AddRow("pipeline", fmt.Sprintf("%d-wide OoO, %d-entry ROB/LSQ, %d mem ports", m.Core.FetchWidth, m.Core.ROBSize, m.Core.MemPorts))
	t.AddRow("store buffer", "SC/TSO: 8-byte 64-entry FIFO; RMO/InvisiFence: 64-byte 8-entry coalescing; 2-ckpt: 32-entry")
	t.AddRow("L1D", fmt.Sprintf("%dKB %d-way, %d-cycle, %d MSHRs", m.L1Bytes>>10, m.L1Ways, m.L1Latency, m.MSHRs))
	t.AddRow("L2", fmt.Sprintf("%dKB %d-way, %d-cycle (paper: 8MB, scaled to proxy footprints)", m.L2Bytes>>10, m.L2Ways, m.L2Latency))
	t.AddRow("memory", fmt.Sprintf("%d-cycle access, %d banks/node", m.MemLatency, m.MemBanks))
	return t
}

// Figure7 renders the workload descriptions (Figure 7).
func Figure7() *Table {
	t := &Table{
		Title:  "Figure 7: workloads (proxy kernels; see DESIGN.md for the substitution rationale)",
		Header: []string{"workload", "proxy structure"},
	}
	for _, name := range workload.Names() {
		wl := workload.MustGet(name, workload.Params{Cores: 2, Model: SC, Seed: 1, Scale: 0.05})
		t.AddRow(name, wl.Description)
	}
	return t
}

// figure8Variants is the six-bar group of Figures 8 and 9.
func figure8Variants() []Variant {
	return []Variant{
		ConventionalVariant(SC), ConventionalVariant(TSO), ConventionalVariant(RMO),
		SelectiveVariant(SC), SelectiveVariant(TSO), SelectiveVariant(RMO),
	}
}

// Figure8 reproduces Figure 8: speedups of conventional and
// INVISIFENCE-SELECTIVE implementations over conventional SC.
func Figure8(c *Campaign) (*Table, error) {
	variants := figure8Variants()
	if err := c.Prefetch(variants); err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 8: speedup over conventional SC (95% CI over seeds)",
		Header: append([]string{"workload"}, variantNames(variants)...),
	}
	gm := make([]float64, len(variants))
	for i := range gm {
		gm[i] = 1
	}
	for _, wl := range c.opts.Workloads {
		base, err := c.Results(wl, variants[0])
		if err != nil {
			return nil, err
		}
		row := []string{wl}
		for i, v := range variants {
			rs, err := c.Results(wl, v)
			if err != nil {
				return nil, err
			}
			s := speedupSummary(base, rs)
			gm[i] *= s.Mean
			row = append(row, s.String())
		}
		t.AddRow(row...)
	}
	n := float64(len(c.opts.Workloads))
	row := []string{"geomean"}
	for _, g := range gm {
		row = append(row, spd(pow(g, 1/n)))
	}
	t.AddRow(row...)
	t.AddNote("paper: TSO ~1.24x SC, RMO ~1.08x TSO; Invisi_sc beats conventional SC/TSO/RMO by 36%%/9%%/2%%; Invisi_rmo ~1.05x RMO")
	return t, nil
}

// Figure9 reproduces Figure 9: execution-time breakdown normalized to SC.
func Figure9(c *Campaign) (*Table, error) {
	variants := figure8Variants()
	if err := c.Prefetch(variants); err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 9: runtime breakdown, % of conventional-SC cycles (Busy/Other/SBfull/SBdrain/Violation)",
		Header: []string{"workload", "variant", "total", "Busy", "Other", "SB full", "SB drain", "Violation"},
	}
	for _, wl := range c.opts.Workloads {
		base, err := c.Results(wl, variants[0])
		if err != nil {
			return nil, err
		}
		scTotal := 0.0
		for _, r := range base {
			scTotal += float64(r.Breakdown.Total())
		}
		scTotal /= float64(len(base))
		for _, v := range variants {
			rs, err := c.Results(wl, v)
			if err != nil {
				return nil, err
			}
			var bd stats.Breakdown
			for _, r := range rs {
				bd.Add(&r.Breakdown)
			}
			norm := func(cl stats.CycleClass) string {
				return pct(float64(bd[cl]) / float64(len(rs)) / scTotal)
			}
			t.AddRow(wl, v.Name, pct(float64(bd.Total())/float64(len(rs))/scTotal),
				norm(stats.Busy), norm(stats.Other), norm(stats.SBFull),
				norm(stats.SBDrain), norm(stats.Violation))
		}
	}
	return t, nil
}

// Figure10 reproduces Figure 10: percent of cycles each
// INVISIFENCE-SELECTIVE variant spends speculating.
func Figure10(c *Campaign) (*Table, error) {
	variants := []Variant{SelectiveVariant(SC), SelectiveVariant(TSO), SelectiveVariant(RMO)}
	if err := c.Prefetch(variants); err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 10: percent of cycles spent in speculation",
		Header: append([]string{"workload"}, variantNames(variants)...),
	}
	for _, wl := range c.opts.Workloads {
		row := []string{wl}
		for _, v := range variants {
			rs, err := c.Results(wl, v)
			if err != nil {
				return nil, err
			}
			var f float64
			for _, r := range rs {
				f += r.SpecFraction
			}
			row = append(row, pct(f/float64(len(rs))))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shape: sc > tso >> rmo (rmo under 10%%)")
	return t, nil
}

// Figure11 reproduces Figure 11: runtime of the ASO baseline vs
// INVISIFENCE-SELECTIVE-SC with one and two checkpoints, normalized to ASO.
func Figure11(c *Campaign) (*Table, error) {
	variants := []Variant{ASOVariant(), SelectiveVariant(SC), Selective2CkptVariant(SC)}
	if err := c.Prefetch(variants); err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 11: runtime normalized to ASO-SC (lower is better)",
		Header: append([]string{"workload"}, variantNames(variants)...),
	}
	for _, wl := range c.opts.Workloads {
		base, err := c.Results(wl, variants[0])
		if err != nil {
			return nil, err
		}
		row := []string{wl}
		for _, v := range variants {
			rs, err := c.Results(wl, v)
			if err != nil {
				return nil, err
			}
			row = append(row, spd(meanCycles(rs)/meanCycles(base)))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: ASO ~1%% ahead of 1-ckpt Invisi (less discarded work); a second checkpoint closes the gap")
	return t, nil
}

// Figure12 reproduces Figure 12: runtime of SC, INVISIFENCE-CONTINUOUS
// (abort-immediately and commit-on-violate), RMO, and INVISIFENCE-RMO,
// normalized to SC.
func Figure12(c *Campaign) (*Table, error) {
	variants := []Variant{
		ConventionalVariant(SC), ContinuousVariant(false), ConventionalVariant(RMO),
		ContinuousVariant(true), SelectiveVariant(RMO),
	}
	if err := c.Prefetch(variants); err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 12: runtime normalized to conventional SC (lower is better)",
		Header: append([]string{"workload"}, variantNames(variants)...),
	}
	for _, wl := range c.opts.Workloads {
		base, err := c.Results(wl, variants[0])
		if err != nil {
			return nil, err
		}
		row := []string{wl}
		for _, v := range variants {
			rs, err := c.Results(wl, v)
			if err != nil {
				return nil, err
			}
			row = append(row, spd(meanCycles(rs)/meanCycles(base)))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: plain continuous ~27%% over SC but behind RMO; CoV recovers most of the gap (within ~2%% of Invisi_rmo)")
	return t, nil
}

func variantNames(vs []Variant) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Name
	}
	return out
}

func pow(x, y float64) float64 { return math.Pow(x, y) }

// AllFigures regenerates every experiment table, in paper order.
func AllFigures(c *Campaign) ([]*Table, error) {
	var out []*Table
	f1, err := Figure1(c)
	if err != nil {
		return nil, err
	}
	out = append(out, f1, Figure2())
	f4, err := Figure4(c)
	if err != nil {
		return nil, err
	}
	out = append(out, f4, Figure6(*c.opts.Machine), Figure7())
	for _, fn := range []func(*Campaign) (*Table, error){Figure8, Figure9, Figure10, Figure11, Figure12} {
		tbl, err := fn(c)
		if err != nil {
			return nil, err
		}
		out = append(out, tbl)
	}
	return out, nil
}
