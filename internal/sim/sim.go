// Package sim assembles the full 16-node system of Figure 6 — cores, cache
// hierarchies, store buffers, directories, torus — and drives the
// deterministic cycle loop.
package sim

import (
	"fmt"

	"invisifence/internal/cache"
	"invisifence/internal/coherence"
	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
	"invisifence/internal/network"
	"invisifence/internal/node"
	"invisifence/internal/stats"
)

// Config describes a whole-system run.
type Config struct {
	Net  network.Config
	Node node.Config // template; ID is assigned per node
	// MaxCycles bounds the run (0 = unbounded).
	MaxCycles uint64
	// WatchdogCycles panics if no instruction retires anywhere for this
	// long (deadlock detector; 0 disables).
	WatchdogCycles uint64
	// DisableIdleSkip forces the lock-step loop, which ticks every node
	// every cycle, instead of the event loop's per-node clocks. Results are
	// bit-exact either way; the flag exists so the bench harness
	// (cmd/bench) can measure the event loop's speedup, and as the
	// bisection oracle. It also builds the system unclustered.
	DisableIdleSkip bool
	// Clusters selects how many node clusters the event loop runs
	// (DESIGN.md §7). Every value below 2 means one cluster: the
	// whole-torus network with per-node local clocks, driven inline with
	// no goroutine. Clusters >= 2 partitions the torus into that many
	// clusters, each simulated by its own goroutine over its own network
	// shard, synchronized at epoch barriers derived from the minimum
	// cross-cluster message latency. Results are bit-exact against the
	// lock-step loop at every value (TestParallelBitExact). One cluster is
	// used instead when the system has fewer nodes than clusters, when
	// DisableIdleSkip is set, or when the network uses jitter (whose RNG is
	// consumed in global send order, which only the whole-torus network
	// reproduces). Setting DebugHook, or enabling coherence tracing,
	// selects the lock-step loop at any cluster count, so per-cycle
	// observation hooks see every cycle in order from one goroutine.
	Clusters int
}

// Result summarizes a completed run.
type Result struct {
	Cycles    uint64
	Finished  bool // all programs halted and quiesced
	Retired   uint64
	Breakdown stats.Breakdown
	PerNode   []*stats.NodeStats

	// SpecFraction is the Figure 10 metric aggregated over cores.
	SpecFraction float64

	// Aggregate event counters.
	Speculations, Commits, Aborts uint64
	CoVDeferrals, CoVSaves        uint64
	CleaningWBs, Prefetches       uint64
	L2HitFills, RemoteFills       uint64
	Mispredicts, Replays          uint64

	// Net is the interconnect's link-contention telemetry (all-zero when
	// Config.Net.LinkBandwidth is 0). Unlike RunnerStats it is part of
	// Result because it is simulated machine state, deterministic across
	// both runners: link reservations are per-source-node, so every
	// runner computes identical occupancy, and the per-shard counters
	// merge order-independently (stats.NetStats).
	Net stats.NetStats
}

// System is one assembled machine.
type System struct {
	cfg   Config
	nodes []*node.Node
	now   uint64

	// shards[c] is cluster c's network (the whole torus when there is one
	// cluster), clusterNodes[c] its node indices (ascending, contiguous),
	// and clusterOf[id] the owning cluster.
	shards       []*network.Network
	clusterNodes [][]int
	clusterOf    []int
	xferScratch  [][]network.Message // barrier-exchange regrouping buffers

	// runnerStats accumulates event-loop telemetry (kept out of Result so
	// both runners produce deeply-equal Results).
	runnerStats stats.RunnerStats

	// DebugHook, when set, runs after every cycle (diagnostics, trace
	// dumps). It selects the lock-step loop, so the hook observes every
	// cycle in order.
	DebugHook func(now uint64)
}

// clusterCount resolves Config.Clusters against the rules documented on
// the field.
func clusterCount(cfg Config, nnodes int) int {
	k := cfg.Clusters
	if k < 2 || nnodes < k || cfg.DisableIdleSkip || cfg.Net.Jitter > 0 {
		return 1
	}
	return k
}

// New builds the system. programs[i] runs on node i; regs[i] seeds its
// registers (thread id, argument pointers).
func New(cfg Config, programs []*isa.Program, regs [][isa.NumRegs]memtypes.Word) *System {
	nnodes := cfg.Net.Width * cfg.Net.Height
	if len(programs) != nnodes {
		panic(fmt.Sprintf("sim: %d programs for %d nodes", len(programs), nnodes))
	}
	k := clusterCount(cfg, nnodes)
	s := &System{cfg: cfg, clusterNodes: partition(nnodes, k), clusterOf: make([]int, nnodes)}
	if k == 1 {
		s.shards = []*network.Network{network.New(cfg.Net)}
	} else {
		for c, ids := range s.clusterNodes {
			owned := make([]bool, nnodes)
			for _, id := range ids {
				owned[id] = true
				s.clusterOf[id] = c
			}
			s.shards = append(s.shards, network.NewShard(cfg.Net, owned))
		}
	}
	for i := 0; i < nnodes; i++ {
		nc := cfg.Node
		nc.ID = network.NodeID(i)
		nc.Nodes = nnodes
		var r [isa.NumRegs]memtypes.Word
		if regs != nil {
			r = regs[i]
		}
		s.nodes = append(s.nodes, node.New(nc, s.shards[s.clusterOf[i]], programs[i], r))
	}
	return s
}

// partition splits n node indices into k contiguous, balanced clusters. On
// the row-major torus, contiguous index ranges are whole rows (plus row
// fragments), so the minimum cross-cluster hop distance — the event
// loop's lookahead — stays at one hop rather than collapsing to zero
// (self-messages, the only sub-hop latency, are always intra-cluster).
func partition(n, k int) [][]int {
	base, rem := n/k, n%k
	out := make([][]int, 0, k)
	next := 0
	for c := 0; c < k; c++ {
		size := base
		if c < rem {
			size++
		}
		ids := make([]int, 0, size)
		for j := 0; j < size; j++ {
			ids = append(ids, next)
			next++
		}
		out = append(out, ids)
	}
	return out
}

// Nodes returns the node count.
func (s *System) Nodes() int { return len(s.nodes) }

// Node returns node i (tests).
func (s *System) Node(i int) *node.Node { return s.nodes[i] }

// WriteWord initializes a word in memory at its home node. Call before Run.
func (s *System) WriteWord(a memtypes.Addr, v memtypes.Word) {
	home := int(a>>memtypes.BlockShift) % len(s.nodes)
	s.nodes[home].Memory().WriteWord(a, v)
}

// ReadWord returns the current coherent value of a word: the unique dirty
// cached copy if one exists, else home memory. Intended for post-run result
// validation on a quiesced system.
func (s *System) ReadWord(a memtypes.Addr) memtypes.Word {
	wi := memtypes.WordIndex(a)
	for _, n := range s.nodes {
		if l := n.L1().Peek(a); l != nil && l.State == cache.Modified {
			return l.Data[wi]
		}
	}
	for _, n := range s.nodes {
		if l := n.L2().Peek(a); l != nil && l.State == cache.Modified {
			return l.Data[wi]
		}
	}
	home := int(a>>memtypes.BlockShift) % len(s.nodes)
	return s.nodes[home].Memory().ReadWord(a)
}

// Run executes the simulation until every node quiesces (or limits hit),
// selecting one of two bit-exact runners (DESIGN.md §6-§7):
//
//   - lock-step (DisableIdleSkip, DebugHook, coherence tracing): tick
//     every node every cycle — the bisection oracle;
//   - the event loop (everything else): per-node local clocks, where a
//     node ticks only at cycles its NextEvent hint or an arriving message
//     says it could change state; one inline cluster by default,
//     Config.Clusters goroutines over network shards with epoch barriers
//     at the minimum cross-cluster latency otherwise.
//
// Skipped node-cycles are provably state-preserving, so both produce
// deeply-equal Results (TestParallelBitExact, TestGoldenResults).
func (s *System) Run() Result {
	if s.cfg.DisableIdleSkip || s.DebugHook != nil || coherence.TraceAddr != 0 {
		return s.runLockstep()
	}
	return s.runEvents()
}

// runLockstep is the naive per-cycle loop: tick every network and node
// each cycle (ascending node ID), exchange cross-shard messages at cycle
// end. Cross-shard messages sent at cycle t arrive at t+latency >= t+1,
// so an end-of-cycle exchange precedes every possible delivery.
func (s *System) runLockstep() Result {
	var lastRetired, lastProgress uint64
	for {
		s.step()
		if s.DebugHook != nil {
			s.DebugHook(s.now)
		}
		done := true
		for _, n := range s.nodes {
			if !n.Finished() {
				done = false
				break
			}
		}
		if done {
			return s.result(true)
		}
		if s.cfg.MaxCycles > 0 && s.now >= s.cfg.MaxCycles {
			return s.result(false)
		}
		if s.cfg.WatchdogCycles > 0 {
			if total := s.totalRetired(); total != lastRetired {
				lastRetired = total
				lastProgress = s.now
			} else if s.now-lastProgress > s.cfg.WatchdogCycles {
				s.watchdogPanic()
			}
		}
	}
}

// step simulates one lock-step cycle.
func (s *System) step() {
	s.now++
	for _, sh := range s.shards {
		sh.Tick(s.now)
	}
	for _, n := range s.nodes {
		n.Tick(s.now)
	}
	s.exchange()
}

// watchdogPanic reports a run that retired nothing for WatchdogCycles
// cycles, ending at s.now. Both runners raise it at the same cycle with
// the same message (TestWatchdogExact).
func (s *System) watchdogPanic() {
	panic(fmt.Sprintf("sim: no retirement progress for %d cycles at cycle %d\n%s",
		s.cfg.WatchdogCycles, s.now, s.debugState()))
}

func (s *System) totalRetired() uint64 {
	var t uint64
	for _, n := range s.nodes {
		t += n.Core().Retired
	}
	return t
}

func (s *System) debugState() string {
	out := ""
	for i, n := range s.nodes {
		c := n.Core()
		out += fmt.Sprintf("node %d: halted=%v pc=%d rob=%d sb=%d retired=%d spec=%v\n",
			i, c.Halted(), c.ArchPC(), c.ROBOccupancy(), n.SBOccupancy(),
			c.Retired, n.Engine().Speculating())
	}
	return out
}

func (s *System) result(finished bool) Result {
	r := Result{
		Cycles:   s.now,
		Finished: finished,
	}
	for _, sh := range s.shards { // ascending shard order; Merge is order-independent anyway
		r.Net.Merge(&sh.Contention)
	}
	var specCycles, totalCycles uint64
	for _, n := range s.nodes {
		st := n.Stats()
		r.PerNode = append(r.PerNode, st)
		r.Breakdown.Add(&st.Final)
		r.Retired += st.Retired
		specCycles += st.SpecCycles
		totalCycles += st.TotalCycles
		r.Speculations += st.Speculations
		r.Commits += st.Commits
		r.Aborts += st.Aborts
		r.CoVDeferrals += st.CoVDeferrals
		r.CoVSaves += st.CoVSaves
		r.CleaningWBs += n.CleaningWBs
		r.Prefetches += n.Prefetches
		r.L2HitFills += n.L2HitFills
		r.RemoteFills += n.RemoteFills
		r.Mispredicts += n.Core().Mispredicts
		r.Replays += n.Core().Replays
	}
	if totalCycles > 0 {
		r.SpecFraction = float64(specCycles) / float64(totalCycles)
	}
	return r
}
