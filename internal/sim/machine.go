package sim

import (
	"fmt"
	"slices"
	"strings"

	"invisifence/internal/cache"
	"invisifence/internal/consistency"
	ifcore "invisifence/internal/core"
	"invisifence/internal/cpu"
	"invisifence/internal/memctrl"
	"invisifence/internal/network"
	"invisifence/internal/node"
)

// Variant names one consistency implementation: a model plus a speculation
// policy and its store buffer sizing.
type Variant struct {
	// Name is the label used in figures ("sc", "Invisi_rmo", ...).
	Name string
	// Model is the consistency model the implementation enforces.
	Model consistency.Model
	// Engine configures post-retirement speculation (Mode Off =
	// conventional).
	Engine ifcore.Config
	// SBCapacity sizes the store buffer per Figure 6 (entries).
	SBCapacity int
}

// ConventionalVariant returns the conventional implementation of a model:
// word-FIFO store buffer for SC/TSO (64 entries), block-coalescing for RMO
// and RC (8 entries).
func ConventionalVariant(m consistency.Model) Variant {
	cap := 64
	if consistency.ConventionalSB(m) == consistency.SBCoalescingBlock {
		cap = 8
	}
	return Variant{
		Name:       m.String(),
		Model:      m,
		Engine:     ifcore.Config{Mode: ifcore.ModeOff, Model: m},
		SBCapacity: cap,
	}
}

// SelectiveVariant returns INVISIFENCE-SELECTIVE for a model: a single
// checkpoint and an 8-entry coalescing buffer (the paper's
// highest-performing configuration).
func SelectiveVariant(m consistency.Model) Variant {
	return Variant{
		Name:       "Invisi_" + m.String(),
		Model:      m,
		Engine:     ifcore.DefaultSelective(m),
		SBCapacity: 8,
	}
}

// Selective2CkptVariant returns the two-checkpoint selective variant of
// §6.4 (32-entry buffer per Figure 6).
func Selective2CkptVariant(m consistency.Model) Variant {
	eng := ifcore.DefaultSelective(m)
	eng.MaxCheckpoints = 2
	return Variant{
		Name:       "Invisi_" + m.String() + "-2ckpt",
		Model:      m,
		Engine:     eng,
		SBCapacity: 32,
	}
}

// ContinuousVariant returns INVISIFENCE-CONTINUOUS (§4.2), optionally with
// the commit-on-violate policy (§3.2, 4000-cycle timeout).
func ContinuousVariant(cov bool) Variant {
	name := "Invisi_cont"
	if cov {
		name = "Invisi_cont_CoV"
	}
	return Variant{
		Name:       name,
		Model:      consistency.SC,
		Engine:     ifcore.DefaultContinuous(cov),
		SBCapacity: 32,
	}
}

// ASOVariant returns the ASO-style baseline (§2.2/§6.4) enforcing SC.
func ASOVariant() Variant {
	return Variant{
		Name:       "ASO_sc",
		Model:      consistency.SC,
		Engine:     ifcore.DefaultASO(),
		SBCapacity: 32,
	}
}

// LouvreVariant returns the Louvre-style versioned-ordering baseline over
// release consistency: version epochs open only at release boundaries
// (two in flight: current + draining, hence the 32-entry buffer), with
// squash-on-version-conflict instead of general speculation.
func LouvreVariant() Variant {
	return Variant{
		Name:       "Louvre_rc",
		Model:      consistency.RC,
		Engine:     ifcore.DefaultLouvre(),
		SBCapacity: 32,
	}
}

// Implementation is one entry of the implementation catalogue: Name is
// the CLI/spec/corpus key ("invisi-sc-2ckpt"), and the embedded Variant,
// whose own Name is the figure label ("Invisi_sc-2ckpt"), is the machine it
// names.
type Implementation struct {
	Name string
	Variant
}

// implementations is the catalogue of every evaluated implementation, in
// corpus order (the row order of the litmus goldens and crossval): the SC,
// TSO and RMO families, then the RC family. Run, the sweep grid, litmus,
// fencesearch and crossval all resolve implementations here, so each key
// names the same machine everywhere.
var implementations = []Implementation{
	{"sc", ConventionalVariant(consistency.SC)},
	{"tso", ConventionalVariant(consistency.TSO)},
	{"rmo", ConventionalVariant(consistency.RMO)},
	{"invisi-sc", SelectiveVariant(consistency.SC)},
	{"invisi-tso", SelectiveVariant(consistency.TSO)},
	{"invisi-rmo", SelectiveVariant(consistency.RMO)},
	{"invisi-sc-2ckpt", Selective2CkptVariant(consistency.SC)},
	{"continuous", ContinuousVariant(false)},
	{"continuous-cov", ContinuousVariant(true)},
	{"aso", ASOVariant()},
	{"rc", ConventionalVariant(consistency.RC)},
	{"invisi-rc", SelectiveVariant(consistency.RC)},
	{"louvre-rc", LouvreVariant()},
}

// Implementations returns the catalogue in corpus order.
func Implementations() []Implementation { return slices.Clone(implementations) }

// ImplementationNames lists the catalogue's keys in corpus order.
func ImplementationNames() []string {
	names := make([]string, len(implementations))
	for i, im := range implementations {
		names[i] = im.Name
	}
	return names
}

// LookupImplementation resolves a catalogue key, case-insensitively.
func LookupImplementation(name string) (Implementation, error) {
	for _, im := range implementations {
		if strings.EqualFold(im.Name, name) {
			return im, nil
		}
	}
	return Implementation{}, fmt.Errorf("unknown variant %q (want one of %s)",
		name, strings.Join(ImplementationNames(), ", "))
}

// Machine is the Figure 6 system model. Capacities are scaled to the
// proxy workloads' footprints (see DESIGN.md §1); latencies follow the
// paper at 4 GHz.
type Machine struct {
	Width, Height int
	HopLatency    uint64 // cycles per torus hop (25 ns = 100)
	LocalLatency  uint64
	Jitter        uint64 // interleaving exploration (0 in experiments)
	// LinkBandwidth enables the per-link contention model: cycles per flit
	// on each torus injection link (messages queue at busy links, DESIGN.md
	// §10). 0 — the calibrated Figure 6 default — keeps the latency-only
	// torus, bit-exact with the pre-contention simulator; the omitempty tag
	// keeps bandwidth-0 cache keys and golden results byte-stable.
	LinkBandwidth uint64 `json:"LinkBandwidth,omitempty"`

	L1Bytes, L1Ways int
	L1Latency       uint64
	L2Bytes, L2Ways int
	L2Latency       uint64

	MemLatency uint64
	MemBanks   int
	BankBusy   uint64

	MSHRs              int
	StorePrefetchDepth int
	MsgsPerCycle       int

	Core cpu.Config
}

// DefaultMachine returns the Figure 6 configuration (L2 scaled from 8 MB
// to 1 MB per node to match the proxy working sets).
func DefaultMachine() Machine {
	return Machine{
		Width: 4, Height: 4,
		HopLatency:   100,
		LocalLatency: 1,
		L1Bytes:      64 << 10, L1Ways: 2, L1Latency: 2,
		L2Bytes: 1 << 20, L2Ways: 8, L2Latency: 25,
		MemLatency: 160, MemBanks: 64, BankBusy: 8,
		MSHRs:              32,
		StorePrefetchDepth: 8,
		MsgsPerCycle:       8,
		Core:               cpu.DefaultConfig(),
	}
}

// Assemble returns the simulator configuration that runs variant v on the
// machine, with seed driving the network's jitter. Every node snoops its
// load queue and holds a filled block for 8 cycles before surrendering it
// to a probe (node.Config). The run bounds (MaxCycles, WatchdogCycles) and
// scheduler choices are left to the caller.
func (m Machine) Assemble(v Variant, seed int64) Config {
	return Config{
		Net: network.Config{
			Width: m.Width, Height: m.Height,
			HopLatency: m.HopLatency, LocalLatency: m.LocalLatency,
			Jitter: m.Jitter, Seed: seed,
			LinkBandwidth: m.LinkBandwidth,
		},
		Node: node.Config{
			Model:              v.Model,
			Engine:             v.Engine,
			Core:               m.Core,
			L1:                 cache.Config{SizeBytes: m.L1Bytes, Ways: m.L1Ways, HitLatency: m.L1Latency, Name: "L1"},
			L2:                 cache.Config{SizeBytes: m.L2Bytes, Ways: m.L2Ways, HitLatency: m.L2Latency, Name: "L2"},
			Memory:             memctrl.Config{AccessLatency: m.MemLatency, Banks: m.MemBanks, BankBusy: m.BankBusy},
			MSHRs:              m.MSHRs,
			SBCapacity:         v.SBCapacity,
			StorePrefetchDepth: m.StorePrefetchDepth,
			MsgsPerCycle:       m.MsgsPerCycle,
			SnoopLQ:            true,
			FillHoldCycles:     8,
		},
	}
}
