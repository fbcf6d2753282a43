// Package invisifence is a from-scratch Go reproduction of
//
//	Blundell, Martin, Wenisch. "InvisiFence: Performance-Transparent
//	Memory Ordering in Conventional Multiprocessors." ISCA 2009.
//
// It bundles a deterministic cycle-level 16-node multiprocessor simulator
// (out-of-order cores, private L1/L2, directory MESI coherence over a 2D
// torus), conventional implementations of SC, TSO, and RMO, the paper's
// InvisiFence selective and continuous speculation mechanisms (including
// commit-on-violate), an ASO-style baseline, proxies for the paper's seven
// workloads, and experiment drivers that regenerate every figure in the
// paper's evaluation.
//
// Quick start:
//
//	cfg := invisifence.DefaultConfig()
//	cfg.Workload = "apache"
//	cfg.Variant = invisifence.SelectiveVariant(invisifence.SC)
//	res, err := invisifence.Run(cfg)
//
// Grid experiments go through [Sweep] (or cmd/sweep), which expands a
// declarative [SweepSpec] over a bounded worker pool and persists every
// result to a content-addressed cache, so overlapping experiments across
// processes and tools simulate each configuration exactly once.
//
// See README.md for the repository layout, DESIGN.md for the system
// inventory, and EXPERIMENTS.md for measured results against the paper.
package invisifence

import (
	"fmt"

	"invisifence/internal/consistency"
	"invisifence/internal/memtypes"
	"invisifence/internal/sim"
	"invisifence/internal/stats"
	"invisifence/internal/workload"
)

// Model is a memory consistency model.
type Model = consistency.Model

// The three models of §2, plus release consistency (RC).
const (
	SC  = consistency.SC
	TSO = consistency.TSO
	RMO = consistency.RMO
	RC  = consistency.RC
)

// Variant names one consistency implementation: a model plus a speculation
// policy and its store buffer sizing. The implementations the paper
// evaluates are catalogued in internal/sim; VariantByName resolves them.
type Variant = sim.Variant

// ConventionalVariant returns the conventional implementation of a model:
// word-FIFO store buffer for SC/TSO (64 entries), block-coalescing for RMO
// and RC (8 entries).
func ConventionalVariant(m Model) Variant { return sim.ConventionalVariant(m) }

// SelectiveVariant returns INVISIFENCE-SELECTIVE for a model: a single
// checkpoint and an 8-entry coalescing buffer.
func SelectiveVariant(m Model) Variant { return sim.SelectiveVariant(m) }

// Selective2CkptVariant returns the two-checkpoint selective variant of
// §6.4 (32-entry buffer).
func Selective2CkptVariant(m Model) Variant { return sim.Selective2CkptVariant(m) }

// ContinuousVariant returns INVISIFENCE-CONTINUOUS (§4.2), optionally with
// the commit-on-violate policy.
func ContinuousVariant(cov bool) Variant { return sim.ContinuousVariant(cov) }

// ASOVariant returns the ASO-style baseline (§2.2/§6.4) enforcing SC.
func ASOVariant() Variant { return sim.ASOVariant() }

// LouvreVariant returns the Louvre-style versioned-ordering baseline over
// release consistency.
func LouvreVariant() Variant { return sim.LouvreVariant() }

// MachineConfig is the Figure 6 system model.
type MachineConfig = sim.Machine

// DefaultMachine returns the Figure 6 configuration (L2 scaled from 8 MB
// to 1 MB per node to match the proxy working sets).
func DefaultMachine() MachineConfig { return sim.DefaultMachine() }

// Config is one simulation run.
type Config struct {
	Machine  MachineConfig
	Variant  Variant
	Workload string
	Seed     int64
	// Scale multiplies workload size (1.0 = calibrated default).
	Scale float64
	// MaxCycles bounds the run (0 = the runner's generous default).
	MaxCycles uint64
	// DisableIdleSkip runs the naive lock-step cycle loop instead of the
	// event loop's per-node clocks. Simulated results are bit-identical either
	// way (enforced by the golden tests), so the flag is excluded from
	// cache keys; it exists for cmd/bench speedup measurements and as a
	// diagnostic bisect knob.
	DisableIdleSkip bool `json:"-"`
	// Clusters sets the event loop's node-cluster count (DESIGN.md §7).
	// Below 2 (the default) the run uses one cluster: per-node local clocks
	// over the whole torus, on the calling goroutine. Clusters >= 2 gives
	// each cluster its own goroutine and network shard, synchronized at
	// epoch barriers. Results are bit-identical at every value
	// (TestParallelBitExact), so — like DisableIdleSkip — the knob is a
	// scheduler selection, excluded from cache keys. Values the event loop
	// cannot split on (more clusters than nodes, jitter, lock-step) run as
	// one cluster.
	Clusters int `json:"-"`
}

// DefaultConfig returns a 16-core run of apache under conventional SC.
func DefaultConfig() Config {
	return Config{
		Machine:  DefaultMachine(),
		Variant:  ConventionalVariant(SC),
		Workload: "apache",
		Seed:     1,
		Scale:    1.0,
	}
}

// Result is a completed run.
type Result struct {
	Config    Config
	Cycles    uint64
	Retired   uint64
	Breakdown stats.Breakdown
	// SpecFraction is the share of core-cycles spent inside speculation
	// (Figure 10).
	SpecFraction float64
	// Counters aggregates interesting events.
	Speculations, Commits, Aborts uint64
	CoVDeferrals, CoVSaves        uint64
	CleaningWBs                   uint64
	// NetStats is the link-contention telemetry (queuing delay, link busy
	// cycles, queue depths), embedded so its fields — every one zero, and
	// omitted from the JSON encoding, unless Machine.LinkBandwidth was
	// non-zero — marshal flat, keeping bandwidth-0 golden results and
	// cached entries byte-stable.
	stats.NetStats
	// Validated reports that the workload's end-to-end data invariant held.
	Validated bool
}

// Workloads lists the seven paper workloads in Figure 1/7 order.
func Workloads() []string { return workload.Names() }

// Run executes one configuration and validates the workload invariant.
func Run(cfg Config) (Result, error) { return RunBounded(cfg, 0) }

// RunBounded is Run with an external cycle backstop: the simulation is
// bounded by the smaller of cfg.MaxCycles (defaulted when zero) and
// backstop (ignored when zero). The bound never enters cfg — MaxCycles
// participates in cache keys, so a service-side backstop must cap the
// run without changing what run it is.
func RunBounded(cfg Config, backstop uint64) (Result, error) {
	cores := cfg.Machine.Width * cfg.Machine.Height
	wl, err := workload.Get(cfg.Workload, workload.Params{
		Cores: cores,
		Model: cfg.Variant.Model,
		Seed:  cfg.Seed,
		Scale: cfg.Scale,
	})
	if err != nil {
		return Result{}, err
	}
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 500_000_000
	}
	if backstop != 0 && backstop < maxCycles {
		maxCycles = backstop
	}
	scfg := cfg.Machine.Assemble(cfg.Variant, cfg.Seed)
	scfg.MaxCycles = maxCycles
	scfg.WatchdogCycles = 2_000_000
	scfg.DisableIdleSkip = cfg.DisableIdleSkip
	scfg.Clusters = cfg.Clusters
	s := sim.New(scfg, wl.Programs, wl.RegInit)
	for a, v := range wl.MemInit {
		s.WriteWord(a, v)
	}
	r := s.Run()
	if !r.Finished {
		return Result{}, fmt.Errorf("invisifence: %s/%s did not finish within %d cycles",
			cfg.Workload, cfg.Variant.Name, maxCycles)
	}
	if err := wl.Validate(func(a memtypes.Addr) memtypes.Word { return s.ReadWord(a) }); err != nil {
		return Result{}, fmt.Errorf("invisifence: %s/%s invariant violated: %w",
			cfg.Workload, cfg.Variant.Name, err)
	}
	return Result{
		Config:       cfg,
		Cycles:       r.Cycles,
		Retired:      r.Retired,
		Breakdown:    r.Breakdown,
		SpecFraction: r.SpecFraction,
		Speculations: r.Speculations,
		Commits:      r.Commits,
		Aborts:       r.Aborts,
		CoVDeferrals: r.CoVDeferrals,
		CoVSaves:     r.CoVSaves,
		CleaningWBs:  r.CleaningWBs,
		NetStats:     r.Net,
		Validated:    true,
	}, nil
}
