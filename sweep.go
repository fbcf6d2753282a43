package invisifence

import (
	"fmt"
	"math"
	"sync"

	ifcore "invisifence/internal/core"
	"invisifence/internal/runcache"
	"invisifence/internal/sim"
	"invisifence/internal/sweep"
)

// VariantNames lists the CLI/spec names accepted by VariantByName, in
// corpus order (the implementation catalogue's order, RC family last).
func VariantNames() []string { return sim.ImplementationNames() }

// VariantByName resolves a spec/CLI name ("sc", "invisi-tso",
// "continuous-cov", ...) to its Variant. Names are case-insensitive.
func VariantByName(name string) (Variant, error) {
	im, err := sim.LookupImplementation(name)
	return im.Variant, err
}

// TorusFor factors a node count into the squarest W x H torus (4 -> 2x2,
// 8 -> 4x2, 16 -> 4x4). Prime counts degenerate to Nx1.
func TorusFor(nodes int) (w, h int, err error) {
	if nodes < 1 {
		return 0, 0, fmt.Errorf("invisifence: node count %d < 1", nodes)
	}
	for h = int(math.Sqrt(float64(nodes))); h > 1; h-- {
		if nodes%h == 0 {
			break
		}
	}
	if h < 1 {
		h = 1
	}
	return nodes / h, h, nil
}

// SweepSpec declares a parameter grid: the cross-product of every listed
// axis becomes one job per cell. Empty axes fall back to defaults
// (documented per field), so the zero spec is a single conventional-SC run
// of every workload. Specs round-trip through JSON for cmd/sweep.
type SweepSpec struct {
	// Workloads to run (default: all seven paper workloads).
	Workloads []string `json:"workloads,omitempty"`
	// Variants by VariantByName name (default: ["sc"]).
	Variants []string `json:"variants,omitempty"`
	// SBDepths overrides the store-buffer capacity in entries; 0 keeps
	// the variant's Figure 6 default (default: [0]).
	SBDepths []int `json:"sb_depths,omitempty"`
	// Checkpoints overrides MaxCheckpoints for speculative variants; 0
	// keeps the variant default, and conventional variants ignore the
	// axis (default: [0]).
	Checkpoints []int `json:"checkpoints,omitempty"`
	// Nodes lists total node counts, each factored into the squarest
	// torus by TorusFor (default: the machine's configured W*H).
	Nodes []int `json:"nodes,omitempty"`
	// LinkBandwidths lists torus link bandwidths in cycles per flit
	// (MachineConfig.LinkBandwidth); 0 keeps the latency-only torus, so
	// contention is a sweepable axis (default: [0]).
	LinkBandwidths []uint64 `json:"link_bandwidths,omitempty"`
	// Seeds lists run seeds (default: [1]).
	Seeds []int64 `json:"seeds,omitempty"`
	// Scale multiplies workload size (default 1.0).
	Scale float64 `json:"scale,omitempty"`
	// MaxCycles bounds each run (0 = the runner's default).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// Machine overrides the base system model (nil = DefaultMachine);
	// Nodes then overrides its dimensions per cell.
	Machine *MachineConfig `json:"machine,omitempty"`
}

// normalized returns a copy with every defaulted axis filled in.
func (s SweepSpec) normalized() SweepSpec {
	if len(s.Workloads) == 0 {
		s.Workloads = Workloads()
	}
	if len(s.Variants) == 0 {
		s.Variants = []string{"sc"}
	}
	if len(s.SBDepths) == 0 {
		s.SBDepths = []int{0}
	}
	if len(s.Checkpoints) == 0 {
		s.Checkpoints = []int{0}
	}
	if s.Machine == nil {
		m := DefaultMachine()
		s.Machine = &m
	}
	if len(s.Nodes) == 0 {
		s.Nodes = []int{s.Machine.Width * s.Machine.Height}
	}
	if len(s.LinkBandwidths) == 0 {
		s.LinkBandwidths = []uint64{s.Machine.LinkBandwidth}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{1}
	}
	if s.Scale == 0 {
		s.Scale = 1.0
	}
	return s
}

// grid is the shape of a normalized spec's axes in canonical order
// (workload slowest, seed fastest), matching the row order of
// SweepOutcome.Table.
func (s SweepSpec) grid() sweep.Grid {
	return sweep.Grid{len(s.Workloads), len(s.Variants), len(s.SBDepths),
		len(s.Checkpoints), len(s.Nodes), len(s.LinkBandwidths), len(s.Seeds)}
}

// Jobs expands the spec into concrete run configurations, in deterministic
// row-major order (workload slowest, seed fastest). Cells that expand to
// identical configurations — e.g. a Checkpoints axis crossed with a
// conventional variant, which ignores it — are deduplicated, keeping the
// first occurrence, so no configuration ever simulates twice.
func (s SweepSpec) Jobs() ([]Config, error) {
	s = s.normalized()
	cells := s.grid().Expand()
	jobs := make([]Config, 0, len(cells))
	seen := make(map[string]bool, len(cells))
	for _, c := range cells {
		wl := s.Workloads[c[0]]
		vname := s.Variants[c[1]]
		sbDepth := s.SBDepths[c[2]]
		ckpts := s.Checkpoints[c[3]]
		nodes := s.Nodes[c[4]]
		linkbw := s.LinkBandwidths[c[5]]
		seed := s.Seeds[c[6]]

		v, err := VariantByName(vname)
		if err != nil {
			return nil, err
		}
		if sbDepth > 0 {
			v.SBCapacity = sbDepth
			v.Name += fmt.Sprintf("@sb%d", sbDepth)
		} else if sbDepth < 0 {
			return nil, fmt.Errorf("invisifence: negative store-buffer depth %d", sbDepth)
		}
		if ckpts > 0 && v.Engine.Mode != ifcore.ModeOff {
			v.Engine.MaxCheckpoints = ckpts
			v.Name += fmt.Sprintf("@ckpt%d", ckpts)
		} else if ckpts < 0 {
			return nil, fmt.Errorf("invisifence: negative checkpoint count %d", ckpts)
		}
		m := *s.Machine
		m.Width, m.Height, err = TorusFor(nodes)
		if err != nil {
			return nil, err
		}
		m.LinkBandwidth = linkbw
		cfg := Config{
			Machine:   m,
			Variant:   v,
			Workload:  wl,
			Seed:      seed,
			Scale:     s.Scale,
			MaxCycles: s.MaxCycles,
		}
		if k := ResultKey(cfg); !seen[k] {
			seen[k] = true
			jobs = append(jobs, cfg)
		}
	}
	return jobs, nil
}

// Size returns the number of cells in the spec's grid before
// deduplication, the product of the axis lengths; len(Jobs()) can be
// smaller when axes overlap (see Jobs).
func (s SweepSpec) Size() int { return s.normalized().grid().Size() }

// SweepOptions configures Sweep's execution (not its results: two sweeps
// of the same spec produce identical outcomes whatever the options).
type SweepOptions struct {
	// Parallel bounds concurrent simulations (default 1).
	Parallel int
	// CacheDir roots the persistent result cache; "" disables
	// persistence (results are still deduplicated in memory).
	CacheDir string
	// Progress, when set, is called after each job finishes. Calls are
	// serialized and done is monotone; completion order across workers
	// is nondeterministic.
	Progress func(done, total int, cfg Config, cached bool)
}

// SweepRun pairs one grid cell's configuration with its result.
type SweepRun struct {
	Config Config
	Result Result
	// Cached reports that the result was served from the persistent
	// cache rather than simulated in this process.
	Cached bool
}

// SweepOutcome is a completed sweep: all runs in deterministic job order
// plus cache accounting.
type SweepOutcome struct {
	Runs []SweepRun
	// Simulated counts runs actually executed (cache misses).
	Simulated int
	// CacheStats snapshots the result cache's traffic counters.
	CacheStats runcache.Stats
}

// ResultKey derives the canonical content-addressed cache key for one run
// configuration. Everything that can change a Result is part of cfg, so
// two processes asking for the same cell always agree on the key — the
// contract that lets Sweep, Campaign, and the sweepd campaign server
// share one cache layout, and lets runcache.Resolve deduplicate a cell
// in flight.
func ResultKey(cfg Config) string { return runcache.MustKey("result", cfg) }

// resolveCell returns cfg's result through cache: served from the cache,
// shared with a concurrent resolution of the same cell, or simulated and
// published.
func resolveCell(cache *runcache.Cache, cfg Config) (Result, runcache.Origin, error) {
	return runcache.Resolve(cache, ResultKey(cfg), func() (Result, error) { return Run(cfg) })
}

// resolveCells resolves every cell on a pool of workers, returning runs
// in cfgs order. done is called after each cell resolves; calls are
// serialized.
func resolveCells(cache *runcache.Cache, cfgs []Config, workers int, done func(Config, runcache.Origin)) ([]SweepRun, error) {
	var mu sync.Mutex
	return sweep.Run(cfgs, sweep.Options{Workers: workers}, func(cfg Config) (SweepRun, error) {
		res, origin, err := resolveCell(cache, cfg)
		if err != nil {
			return SweepRun{}, err
		}
		mu.Lock()
		done(cfg, origin)
		mu.Unlock()
		return SweepRun{Config: cfg, Result: res, Cached: origin != runcache.Computed}, nil
	})
}

// Sweep expands the spec and executes every cell on a bounded worker pool,
// serving previously-computed cells from the persistent cache. Results
// are ordered by grid position regardless of worker scheduling.
func Sweep(spec SweepSpec, opts SweepOptions) (*SweepOutcome, error) {
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	cache, err := runcache.Open(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	simulated, done := 0, 0
	runs, err := resolveCells(cache, jobs, opts.Parallel, func(cfg Config, origin runcache.Origin) {
		cached := origin != runcache.Computed
		if !cached {
			simulated++
		}
		done++
		if opts.Progress != nil {
			opts.Progress(done, len(jobs), cfg, cached)
		}
	})
	if err != nil {
		return nil, err
	}
	return &SweepOutcome{Runs: runs, Simulated: simulated, CacheStats: cache.Stats()}, nil
}

// Table renders the outcome as one row per run, in grid order. The table
// depends only on the results, never on cache state, so repeated sweeps
// of one spec render byte-identical tables.
func (o *SweepOutcome) Table() *Table {
	t := &Table{
		Title: "Sweep results",
		Header: []string{"workload", "variant", "nodes", "sb", "ckpts", "linkbw", "seed",
			"cycles", "retired", "IPC/core", "spec%", "aborts", "qdelay/msg"},
	}
	for _, r := range o.Runs {
		cfg := r.Config
		nodes := cfg.Machine.Width * cfg.Machine.Height
		// A zero-cycle result (degenerate config, corrupt cache entry) must
		// not render NaN into the table.
		ipcCell := "-"
		if r.Result.Cycles > 0 && nodes > 0 {
			ipcCell = fmt.Sprintf("%.3f", float64(r.Result.Retired)/float64(r.Result.Cycles)/float64(nodes))
		}
		// A latency-only cell (LinkBandwidth 0) has no queuing delay to
		// report; render "-" rather than a misleading 0.0.
		qdelayCell := "-"
		if cfg.Machine.LinkBandwidth > 0 {
			qdelayCell = fmt.Sprintf("%.1f", r.Result.QueueDelayPerMsg())
		}
		t.AddRow(
			cfg.Workload, cfg.Variant.Name,
			fmt.Sprintf("%d", nodes),
			fmt.Sprintf("%d", cfg.Variant.SBCapacity),
			fmt.Sprintf("%d", cfg.Variant.Engine.MaxCheckpoints),
			fmt.Sprintf("%d", cfg.Machine.LinkBandwidth),
			fmt.Sprintf("%d", cfg.Seed),
			fmt.Sprintf("%d", r.Result.Cycles),
			fmt.Sprintf("%d", r.Result.Retired),
			ipcCell,
			pct(r.Result.SpecFraction),
			fmt.Sprintf("%d", r.Result.Aborts),
			qdelayCell,
		)
	}
	return t
}
