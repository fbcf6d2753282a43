// The event loop: per-node local clocks over one or more node clusters,
// with epoch barriers at the torus lookahead between clusters.
//
// The contract (DESIGN.md §7, condensed):
//
//   - Nodes interact only through the network. The minimum latency between
//     nodes in different clusters — the lookahead L — bounds how far one
//     cluster's present can influence another's future: a message sent at
//     cycle t arrives no earlier than t+L. Link contention
//     (Config.Net.LinkBandwidth > 0) preserves the bound: injection-link
//     state is per source node, resolved inside the sender's shard at send
//     time — a cross-cluster send contends only at injection — and
//     queuing/serialization only ever delay delivery (DESIGN.md §10).
//   - Therefore, once every cluster has simulated through cycle E and
//     exchanged cross-cluster messages, each cluster can simulate
//     (E, E+L] independently: every message that can arrive in that window
//     is already in its shard's in-flight heap. With one cluster there is
//     no cross-cluster message, so an epoch is bounded only by MaxCycles
//     and the watchdog deadline, and the cluster runs inline.
//   - Within its epoch a cluster runs an event loop with per-node local
//     clocks: a node ticks only at cycles where its cached NextEvent
//     horizon or an arriving message says it could change state; the
//     skipped node-cycles are replayed in bulk with SkipCycles before its
//     next tick.
//   - Termination must match the lock-step loop bit-exactly: the run ends
//     at the first cycle F at which every node reports Finished. A cluster
//     whose nodes are all finished pauses rather than simulating ahead
//     (cycles past F must never be simulated), and the coordinator resolves
//     the exact F with an iterative barrier protocol (see resolve).
//
// Determinism: between barriers, each cluster touches only its own nodes
// and shard; the coordinator touches shared state only while every worker
// is parked (channel-synchronized, so the race detector agrees). Message
// delivery order is a total order independent of exchange batching (see the
// ordering note in internal/network). Within a cluster, nodes tick in
// ascending (cycle, node ID) order — the lock-step order — so a single
// whole-torus cluster also draws network jitter in the lock-step order.
package sim

import (
	"fmt"

	"invisifence/internal/memtypes"
	"invisifence/internal/network"
	"invisifence/internal/node"
	"invisifence/internal/stats"
)

// cluster is one worker's slice of the machine: a contiguous run of nodes
// plus their network shard.
type cluster struct {
	idx   int
	shard *network.Network
	nodes []*node.Node
	ids   []network.NodeID

	// clock is the cluster's local clock: every owned node's state reflects
	// all cycles <= clock (ticked or provably idle). lastTick and horizon
	// are the per-node local clocks: lastTick[i] is the last cycle node i
	// actually ticked, horizon[i] its NextEvent hint cached at that tick
	// (absolute cycle, or memtypes.NoEvent). Cycles in (lastTick[i], clock]
	// are node i's lag, replayed in bulk via SkipCycles before its next
	// tick.
	clock    uint64
	lastTick []uint64
	horizon  []uint64

	// progress is the last cycle at which an owned node retired an
	// instruction (the watchdog's clock; 0 before any retirement).
	progress uint64

	// paused marks that the cluster stopped at pauseCycle because all its
	// nodes were Finished there and the coordinator had not yet proven the
	// run extends further (the endgame protocol).
	paused     bool
	pauseCycle uint64

	st stats.RunnerStats

	cmds chan clusterCmd
	done chan struct{}
}

// clusterCmd asks a worker to advance its cluster: simulate up to limit,
// pausing at the first cycle >= safe at which all its nodes are Finished.
// safe is the coordinator's guarantee that the lock-step loop would reach
// cycle safe (F >= safe), so pausing earlier is never necessary.
type clusterCmd struct{ safe, limit uint64 }

func newCluster(idx int, shard *network.Network, all []*node.Node, ids []int) *cluster {
	c := &cluster{idx: idx, shard: shard}
	for _, id := range ids {
		c.nodes = append(c.nodes, all[id])
		c.ids = append(c.ids, network.NodeID(id))
		c.lastTick = append(c.lastTick, 0)
		// Before its first tick every node is one fetch away from work.
		c.horizon = append(c.horizon, 1)
	}
	return c
}

// nextEventTime returns the earliest cycle at which anything in this
// cluster could change state: a node horizon or an in-flight delivery.
// Arrivals already sitting in an inbox force the owed node's horizon to
// lastTick+1, so they are covered by the horizon terms.
func (c *cluster) nextEventTime() uint64 {
	t := c.shard.NextEvent()
	for _, h := range c.horizon {
		if h < t {
			t = h
		}
	}
	return t
}

func (c *cluster) allFinished() bool {
	for _, n := range c.nodes {
		if !n.Finished() {
			return false
		}
	}
	return true
}

// advance simulates the cluster forward to limit under the pause rule: stop
// at the first cycle t >= safe at which every owned node is Finished —
// that cycle might be the whole run's finish F, and no node may ever be
// simulated past F. The event loop ticks only nodes whose horizon is due or
// whose inbox is non-empty; everyone else accrues lag.
func (c *cluster) advance(safe, limit uint64) {
	c.paused = false
	for {
		fin := c.allFinished()
		if fin && c.clock >= safe {
			c.paused = true
			c.pauseCycle = c.clock
			return
		}
		lim := limit
		if fin && safe < lim {
			// All nodes finished but the run is only proven to reach safe:
			// advance to safe (processing any arrivals on the way, which may
			// un-finish a node) and re-evaluate there.
			lim = safe
		}
		if c.clock >= lim {
			return
		}
		t := c.nextEventTime()
		if t == memtypes.NoEvent && lim == memtypes.NoEvent {
			// Unfinished, nothing pending, and no bound to stop at: the
			// lock-step loop would spin forever.
			panic(fmt.Sprintf("sim: cluster %d is deadlocked at cycle %d and the run has no MaxCycles or watchdog bound", c.idx, c.clock))
		}
		if t > lim { // includes NoEvent
			c.clock = lim // provably-idle stretch: pure lag, no work
			continue
		}
		if t <= c.clock {
			panic(fmt.Sprintf("sim: cluster %d event horizon %d not beyond clock %d", c.idx, t, c.clock))
		}
		c.runCycle(t)
		c.clock = t
	}
}

// runCycle simulates exactly cycle t: deliver arrivals, then tick every due
// node (ascending node ID, matching the lock-step order), replaying each
// ticked node's lag first.
func (c *cluster) runCycle(t uint64) {
	c.shard.Tick(t)
	for i, n := range c.nodes {
		if c.horizon[i] <= t || c.shard.InboxLen(c.ids[i]) > 0 {
			if gap := t - c.lastTick[i] - 1; gap > 0 {
				n.SkipCycles(gap)
				c.st.SkippedNodeCycles += gap
			}
			retired := n.Core().Retired
			n.Tick(t)
			if n.Core().Retired != retired {
				c.progress = t
			}
			c.lastTick[i] = t
			c.horizon[i] = n.NextEvent()
			c.st.NodeTicks++
		}
	}
	c.st.SimulatedCycles++
}

// flushLag brings every node's accounting up to cycle "to" (all remaining
// lag is provably idle), aligning the cluster with what the lock-step loop
// would have ticked by then.
func (c *cluster) flushLag(to uint64) {
	for i, n := range c.nodes {
		if gap := to - c.lastTick[i]; gap > 0 {
			n.SkipCycles(gap)
			c.st.SkippedNodeCycles += gap
			c.lastTick[i] = to
		}
	}
	c.clock = to
}

// ---------------------------------------------------------------- runner

// runEvents is the coordinator: it drives the clusters through epochs of
// length lookahead, exchanges cross-shard messages at barriers,
// fast-forwards whole-system idle stretches, and resolves the exact finish
// cycle. With one cluster it runs everything inline.
func (s *System) runEvents() Result {
	clusters := make([]*cluster, len(s.shards))
	for ci := range s.shards {
		clusters[ci] = newCluster(ci, s.shards[ci], s.nodes, s.clusterNodes[ci])
	}
	if len(clusters) > 1 {
		for _, c := range clusters {
			c.cmds = make(chan clusterCmd)
			c.done = make(chan struct{})
			go func(c *cluster) {
				for cmd := range c.cmds {
					c.advance(cmd.safe, cmd.limit)
					c.done <- struct{}{}
				}
			}(c)
		}
	}
	defer func() {
		for _, c := range clusters {
			if c.cmds != nil {
				close(c.cmds)
			}
			s.runnerStats.Merge(&c.st) // ascending cluster order: deterministic
		}
	}()

	lookahead := s.lookahead()
	var (
		epochEnd     uint64 // every cluster has simulated through epochEnd
		safe         uint64 // lock-step provably reaches this cycle (F >= safe)
		lastProgress uint64 // last cycle at which any node retired
	)
	for {
		// The lock-step loop's watchdog fires at the first cycle with no
		// retirement for WatchdogCycles cycles; no epoch or jump crosses it.
		deadline := uint64(memtypes.NoEvent)
		if s.cfg.WatchdogCycles > 0 {
			deadline = lastProgress + s.cfg.WatchdogCycles + 1
		}
		if s.cfg.MaxCycles > 0 && s.cfg.MaxCycles < deadline {
			deadline = s.cfg.MaxCycles
		}

		// Whole-system idle jump: the clock may advance to one cycle before
		// the global horizon, never across the deadline. No node ticks, so
		// no Finished flag can change during the jumped stretch — the run
		// cannot end inside it.
		h := uint64(memtypes.NoEvent)
		for _, c := range clusters {
			if t := c.nextEventTime(); t < h {
				h = t
			}
		}
		if h != memtypes.NoEvent && h > epochEnd+1 {
			jump := min(h-1, deadline)
			if jump > epochEnd {
				clusters[0].st.IdleJumpCycles += jump - epochEnd
				for _, c := range clusters {
					c.clock = jump
				}
				epochEnd = jump
				safe = max(safe, epochEnd)
			}
		}

		target := deadline
		if lookahead != memtypes.NoEvent {
			target = min(epochEnd+lookahead, deadline)
		}

		s.dispatch(clusters, safe, target)
		if res, end := s.resolve(clusters, &safe, target); end {
			return res
		}
		epochEnd = target
		clusters[0].st.Epochs++

		// Barrier exchange: move every cross-cluster message into the shard
		// that owns its destination. All of them arrive after target (the
		// lookahead guarantee), so injection precedes any cycle at which
		// they could be delivered.
		s.exchange()

		if s.cfg.MaxCycles > 0 && epochEnd >= s.cfg.MaxCycles {
			for _, c := range clusters {
				c.flushLag(epochEnd)
			}
			s.now = epochEnd
			return s.result(false)
		}
		for _, c := range clusters {
			lastProgress = max(lastProgress, c.progress)
		}
		if s.cfg.WatchdogCycles > 0 && epochEnd-lastProgress > s.cfg.WatchdogCycles {
			s.now = epochEnd
			s.watchdogPanic()
		}
	}
}

// dispatch runs advance(safe, limit) on every cluster in sel concurrently
// and waits for all of them (the barrier). A lone cluster runs inline.
func (s *System) dispatch(sel []*cluster, safe, limit uint64) {
	if len(s.shards) == 1 {
		sel[0].advance(safe, limit)
		return
	}
	for _, c := range sel {
		c.cmds <- clusterCmd{safe: safe, limit: limit}
	}
	for _, c := range sel {
		<-c.done
	}
}

// resolve runs the endgame protocol after an epoch's advance. The lock-step
// loop ends at the first cycle F at which every node is Finished; here each
// cluster pauses at its own first all-finished cycle, and F — if it lies in
// this epoch — is the fixpoint of: take the maximum pause cycle F*, prove
// the run reaches it (every earlier cycle had an unfinished node in the
// cluster that paused at F*), let the clusters behind catch up to it, and
// repeat until either every cluster pauses at the same cycle (the run ends
// there) or some cluster passes the epoch end unfinished (the run
// continues; stragglers catch up to the epoch end).
func (s *System) resolve(clusters []*cluster, safe *uint64, target uint64) (Result, bool) {
	for {
		allPaused := true
		for _, c := range clusters {
			if !c.paused {
				allPaused = false
				break
			}
		}
		if !allPaused {
			// The run provably extends through target: catch stragglers up.
			*safe = target
			var behind []*cluster
			for _, c := range clusters {
				if c.paused && c.clock < target {
					behind = append(behind, c)
				}
			}
			if len(behind) > 0 {
				clusters[0].st.Resolutions++
				s.dispatch(behind, target, target)
			}
			for _, c := range clusters {
				c.paused = false
			}
			return Result{}, false
		}
		f := clusters[0].pauseCycle
		same := true
		for _, c := range clusters[1:] {
			if c.pauseCycle > f {
				f = c.pauseCycle
			}
			if c.pauseCycle != clusters[0].pauseCycle {
				same = false
			}
		}
		if same {
			// Every node Finished at f, and no cluster simulated past it:
			// this is exactly where the lock-step loop returns.
			for _, c := range clusters {
				c.flushLag(f)
			}
			s.now = f
			return s.result(true), true
		}
		*safe = f
		var behind []*cluster
		for _, c := range clusters {
			if c.clock < f {
				behind = append(behind, c)
			}
		}
		clusters[0].st.Resolutions++
		s.dispatch(behind, f, target)
	}
}

// lookahead computes the epoch length: the minimum message latency between
// any two nodes in different clusters, or memtypes.NoEvent for one cluster.
// Self-messages (LocalLatency) are always intra-cluster, so between
// clusters the bound is at least one torus hop.
func (s *System) lookahead() uint64 {
	la := uint64(memtypes.NoEvent)
	for ci, as := range s.clusterNodes {
		for cj, bs := range s.clusterNodes {
			if ci == cj {
				continue
			}
			for _, a := range as {
				for _, b := range bs {
					la = min(la, s.shards[0].Latency(network.NodeID(a), network.NodeID(b)))
				}
			}
		}
	}
	return max(la, 1)
}

// exchange drains every shard's outbox and injects each message into the
// shard owning its destination. Insertion order cannot affect delivery
// order (total ordering key), so a simple per-destination regrouping
// suffices.
func (s *System) exchange() {
	if s.xferScratch == nil {
		s.xferScratch = make([][]network.Message, len(s.shards))
	}
	for _, src := range s.shards {
		for _, m := range src.DrainOutbox() {
			c := s.clusterOf[int(m.Dst)]
			s.xferScratch[c] = append(s.xferScratch[c], m)
		}
	}
	for c, ms := range s.xferScratch {
		if len(ms) > 0 {
			s.shards[c].Inject(ms)
			s.xferScratch[c] = ms[:0]
		}
	}
}

// RunnerStats returns the event loop's merged telemetry for the completed
// run (zero after a lock-step run). It is intentionally not part of Result:
// both runners must produce deeply-equal Results.
func (s *System) RunnerStats() stats.RunnerStats { return s.runnerStats }
