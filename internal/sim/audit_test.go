package sim

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"invisifence/internal/consistency"
	ifcore "invisifence/internal/core"
	"invisifence/internal/cpu"
	"invisifence/internal/isa"
	"invisifence/internal/network"
	"invisifence/internal/node"
	"invisifence/internal/workload"
)

// fingerprint is a cheap snapshot of one node's simulated state: counters
// and occupancies every state change of interest moves. It leaves out
// exactly the counters Node.SkipCycles replays for skipped cycles — the
// cycle-class accounting, the store buffers' FullStalls and the core's
// FetchedWrongPath — so between two consecutive cycles it may change only
// if the node really did something.
type fingerprint struct {
	Retired, Mispredicts, Replays, Squashes          uint64
	PC, ROB, RetiredThisCycle                        int
	Dispatched, Executing                            int // issue and completion progress
	HeadStall                                        cpu.StallReason
	MSHRs, Parked, SB                                int
	CleaningWBs, Prefetches, L2HitFills, RemoteFills uint64
	Speculations, Commits, Aborts                    uint64
	CoVDeferrals, CoVSaves, ForcedCommits            uint64
	Epoch, Epochs                                    int
	L1Hits, L1Misses, L1Evictions, L1Writebacks      uint64
	L2Hits, L2Misses, L2Evictions, L2Writebacks      uint64
	DirTransactions, DirForwards, DirInvals          uint64
	DirQueued                                        uint64
	DirPending                                       int
	MemReads, MemWrites                              uint64
	Sent                                             uint64 // messages this node has sent
}

func fingerprintOf(n *node.Node, sent uint64) fingerprint {
	c, st, l1, l2, dir, mem := n.Core(), n.Stats(), n.L1(), n.L2(), n.Directory(), n.Memory()
	disp, exec := c.IssueProgress()
	return fingerprint{
		Retired: c.Retired, Mispredicts: c.Mispredicts, Replays: c.Replays, Squashes: c.Squashes,
		PC: c.ArchPC(), ROB: c.ROBOccupancy(), RetiredThisCycle: c.RetiredThisCycle,
		Dispatched: disp, Executing: exec,
		HeadStall: c.HeadStall,
		MSHRs:     n.MSHRCount(), Parked: n.ParkedCount(), SB: n.SBOccupancy(),
		CleaningWBs: n.CleaningWBs, Prefetches: n.Prefetches, L2HitFills: n.L2HitFills, RemoteFills: n.RemoteFills,
		Speculations: st.Speculations, Commits: st.Commits, Aborts: st.Aborts,
		CoVDeferrals: st.CoVDeferrals, CoVSaves: st.CoVSaves, ForcedCommits: st.ForcedCommits,
		Epoch: n.Engine().YoungestEpoch(), Epochs: len(n.Engine().ActiveEpochs()),
		L1Hits: l1.Hits, L1Misses: l1.Misses, L1Evictions: l1.Evictions, L1Writebacks: l1.Writebacks,
		L2Hits: l2.Hits, L2Misses: l2.Misses, L2Evictions: l2.Evictions, L2Writebacks: l2.Writebacks,
		DirTransactions: dir.Transactions, DirForwards: dir.Forwards, DirInvals: dir.Invals,
		DirQueued: dir.Queued, DirPending: dir.PendingTransactions(),
		MemReads: mem.Reads, MemWrites: mem.Writes,
		Sent: sent,
	}
}

// changedField names the first fingerprint field that differs.
func changedField(a, b fingerprint) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if va.Field(i).Interface() != vb.Field(i).Interface() {
			return fmt.Sprintf("%s %v -> %v", va.Type().Field(i).Name, va.Field(i), vb.Field(i))
		}
	}
	return ""
}

// auditReport counts the audited run's hint-driven ticks. An early tick is
// one the hint made due (no delivery waiting) that left the fingerprint
// unchanged: a wasted tick of the event loop, as far as the fingerprint
// can see. ticks and early group them by the head plan (Node.HeadPlan) the
// hint was computed with, termTicks and termEarly by the NextEvent term
// that set it (Node.NextEventTerm).
type auditReport struct {
	deliveryTicks, hintTicks, earlyTicks uint64
	ticks, early                         map[string]uint64 // by head plan
	termTicks, termEarly                 map[string]uint64 // by wake term
}

// add folds another run's counts into r.
func (r *auditReport) add(o auditReport) {
	r.deliveryTicks += o.deliveryTicks
	r.hintTicks += o.hintTicks
	r.earlyTicks += o.earlyTicks
	for _, m := range [][2]map[string]uint64{{r.ticks, o.ticks}, {r.early, o.early}, {r.termTicks, o.termTicks}, {r.termEarly, o.termEarly}} {
		for k, v := range m[1] {
			m[0][k] += v
		}
	}
}

func newAuditReport() auditReport {
	return auditReport{ticks: map[string]uint64{}, early: map[string]uint64{}, termTicks: map[string]uint64{}, termEarly: map[string]uint64{}}
}

// log writes the report's hint-driven and early ticks grouped by wake term
// and by head plan.
func (r auditReport) log(t testing.TB, label string) {
	t.Helper()
	t.Logf("%s: %d delivery ticks, %d hint-driven ticks (%d early)", label, r.deliveryTicks, r.hintTicks, r.earlyTicks)
	for _, g := range []struct {
		by           string
		ticks, early map[string]uint64
	}{{"wake term", r.termTicks, r.termEarly}, {"head plan", r.ticks, r.early}} {
		keys := make([]string, 0, len(g.ticks))
		for k := range g.ticks {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		t.Logf("  by %s at the hint:", g.by)
		for _, k := range keys {
			t.Logf("    %-22s %9d ticks %9d early", k, g.ticks[k], g.early[k])
		}
	}
}

// runAudited is runLockstep with a hint audit: a copy of the lock-step
// loop that, alongside every node tick, replays the event loop's per-node
// decision. A node is due at cycle t when its last NextEvent hint is <= t
// or a delivery sits in its inbox; the event loop ticks only due nodes.
// The lock-step loop ticks everyone, so a node that is not due must come
// out of its tick with an unchanged fingerprint — otherwise its hint was
// late and the event loop would have skipped a real state change. The
// audit fails the test at the first late hint, naming the node, the
// cycle, the hint and the field that changed.
func runAudited(t testing.TB, s *System) (Result, auditReport) {
	t.Helper()
	if len(s.shards) != 1 {
		t.Fatalf("audit needs the unclustered lock-step system (DisableIdleSkip)")
	}
	net := s.shards[0]
	nn := len(s.nodes)
	horizon := make([]uint64, nn)
	sent := make([]uint64, nn)
	prev := make([]fingerprint, nn)
	head := make([]cpu.HeadState, nn) // the ROB head each hint was computed for
	plan := make([]string, nn)        // and its plan
	term := make([]string, nn)        // the NextEvent term that set it
	rep := newAuditReport()
	for i, n := range s.nodes {
		horizon[i] = 1 // before its first tick every node is one fetch away from work
		prev[i] = fingerprintOf(n, 0)
		plan[i], term[i] = "start", "start"
	}
	for {
		s.now++
		net.Tick(s.now)
		for i, n := range s.nodes {
			delivery := net.InboxLen(network.NodeID(i)) > 0
			due := horizon[i] <= s.now || delivery
			before := net.Sent
			n.Tick(s.now)
			sent[i] += net.Sent - before
			fp := fingerprintOf(n, sent[i])
			switch {
			case !due && fp != prev[i]:
				t.Fatalf("late hint: node %d changed state at cycle %d before its hint %d with an empty inbox: %s (head at the hint: %+v, plan %s)",
					i, s.now, horizon[i], changedField(prev[i], fp), head[i], plan[i])
			case delivery:
				rep.deliveryTicks++
			case due:
				rep.hintTicks++
				rep.ticks[plan[i]]++
				rep.termTicks[term[i]]++
				if fp == prev[i] {
					rep.earlyTicks++
					rep.early[plan[i]]++
					rep.termEarly[term[i]]++
				}
			}
			if due {
				horizon[i], term[i] = n.NextEventTerm()
				head[i], plan[i] = n.Core().HeadState(), n.HeadPlan()
			}
			prev[i] = fp
		}
		s.exchange()
		done := true
		for _, n := range s.nodes {
			if !n.Finished() {
				done = false
				break
			}
		}
		if done {
			return s.result(true), rep
		}
		if s.cfg.MaxCycles > 0 && s.now >= s.cfg.MaxCycles {
			return s.result(false), rep
		}
	}
}

// idleSkipCases are the consistency implementations the runner-equivalence
// grids cover: every conventional model, every speculation mode.
var idleSkipCases = []struct {
	name  string
	model consistency.Model
	eng   ifcore.Config
}{
	{"conventional-sc", consistency.SC, offEngine(consistency.SC)},
	{"conventional-tso", consistency.TSO, offEngine(consistency.TSO)},
	{"conventional-rmo", consistency.RMO, offEngine(consistency.RMO)},
	{"conventional-rc", consistency.RC, offEngine(consistency.RC)},
	{"selective-sc", consistency.SC, ifcore.DefaultSelective(consistency.SC)},
	{"selective-rmo", consistency.RMO, ifcore.DefaultSelective(consistency.RMO)},
	{"selective-rc", consistency.RC, ifcore.DefaultSelective(consistency.RC)},
	{"louvre-rc", consistency.RC, ifcore.DefaultLouvre()},
	{"continuous", consistency.SC, ifcore.DefaultContinuous(false)},
	{"continuous-cov", consistency.SC, ifcore.DefaultContinuous(true)},
	{"aso", consistency.SC, ifcore.DefaultASO()},
}

// TestHintAudit runs the contended programs of TestIdleSkipBitExact,
// headTermPrograms and sbTermPrograms under the hint audit: no node may change state before
// its NextEvent hint without a delivery, and the audited loop must
// reproduce the event loop's Result.
func TestHintAudit(t *testing.T) {
	for _, c := range idleSkipCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(2, 2, c.model, c.eng)
			nnodes := cfg.Net.Width * cfg.Net.Height
			contended := make([]*isa.Program, nnodes)
			for i := range contended {
				contended[i] = programFor(c.model, i, nnodes)
			}
			for _, progs := range append([][]*isa.Program{contended, headTermPrograms(nnodes)}, sbTermPrograms(nnodes)...) {
				// Audit first: a late hint can stall the event loop for good.
				cfg.DisableIdleSkip = true
				audited, _ := runAudited(t, New(cfg, progs, nil))
				cfg.DisableIdleSkip = false
				events := New(cfg, progs, nil).Run()
				if !audited.Finished || !reflect.DeepEqual(audited, events) {
					t.Errorf("%s: audited lock-step diverged from the event loop:\naudited: %+v\nevents:  %+v", progs[0].Name, audited, events)
				}
			}
		})
	}
}

// headTermPrograms isolate the ROB head's term of the hint. Node 0 fetches
// an atomic to a missing block and its Halt into an empty ROB in one
// cycle, so fetch stops; the next cycle the atomic issues (address
// generation, after retirement ran), with nothing older to retire and
// nothing younger to issue. Its first retirement attempt, which allocates
// the miss, therefore happens a cycle later with only the head term due —
// in the contended programs such an attempt always shares its cycle with a
// fetch, a retirement or a completion, which mask a late head term. (A full
// ROB cannot isolate it: an atomic that reaches the head behind older
// instructions is tried in the cycle they retire.) The other nodes halt.
func headTermPrograms(nnodes int) []*isa.Program {
	b := isa.NewBuilder("head-term")
	b.Fadd(isa.R2, isa.R0, 0x4000, isa.R3)
	b.Halt()
	return onNodeZero(b.MustBuild(), nnodes)
}

// onNodeZero runs p on node 0 and halts the other nodes.
func onNodeZero(p *isa.Program, nnodes int) []*isa.Program {
	progs := []*isa.Program{p}
	for len(progs) < nnodes {
		progs = append(progs, haltProgram())
	}
	return progs
}

// sbTermPrograms isolate the store buffer's term of the hint: each leaves
// node 0 with a drain step due in a cycle where no other term is, the
// core halted or stalled on a miss. In a 2x2 machine, block a's home is
// node (a>>6)%4. The other nodes halt.
//   - sb-fifo-write: four stores to one remote block. After the fill the
//     FIFO writes one per cycle, so three heads drain alone (FIFO
//     implementations).
//   - sb-fifo-request: four stores to block X, then one to Y, then a load
//     whose value addresses twelve more. Those twelve misses fill the
//     store-prefetch headroom (MSHRs-4) before X's fill, so Y is never
//     prefetched: when Y reaches the FIFO head, its ownership request is
//     the head's alone (FIFO implementations).
//   - sb-coal-hold: chunk 1 writes L, then buffers a store to M; chunk 2
//     buffers a store to L that chunk 1's write holds back (§3.1), then
//     halts. M's fill drains chunk 1 and commits it, leaving L dirty; the
//     held entry's next step, the cleaning writeback (§3.2), comes due
//     the next cycle alone (continuous mode, 100-instruction chunks).
func sbTermPrograms(nnodes int) [][]*isa.Program {
	const (
		x, y, z  = 0x4040, 0x6500, 0x4000 // homes 1, 0, 0
		l, n, m  = 0x4040, 0x40C0, 0x41C0 // homes 1, 3, 3
		far      = 0x8000                 // the twelve loads' blocks
		farLoads = 12                     // MSHRs (16) - 4
	)
	w := isa.NewBuilder("sb-fifo-write")
	w.MovI(isa.R1, x)
	w.MovI(isa.R2, 7)
	for i := int64(0); i < 4; i++ {
		w.St(isa.R1, 8*i, isa.R2)
	}
	w.Halt()

	r := isa.NewBuilder("sb-fifo-request")
	r.MovI(isa.R1, x)
	r.MovI(isa.R2, 7)
	r.MovI(isa.R3, y)
	r.MovI(isa.R4, z)
	for i := int64(0); i < 4; i++ {
		r.St(isa.R1, 8*i, isa.R2)
	}
	r.St(isa.R3, 0, isa.R2)
	r.Ld(isa.R5, isa.R4, 0) // a local miss; memory holds 0
	for i := int64(0); i < farLoads; i++ {
		r.Ld(isa.R6, isa.R5, far+i*64)
	}
	r.Halt()

	h := isa.NewBuilder("sb-coal-hold")
	h.MovI(isa.R1, l)
	h.MovI(isa.R2, n)
	h.MovI(isa.R3, m)
	h.MovI(isa.R4, 7)
	h.St(isa.R1, 0, isa.R4) // chunk 1's store to L drains at L's fill
	h.Ld(isa.R5, isa.R2, 0) // N's fill comes later: L is written by then
	h.St(isa.R3, 0, isa.R4) // chunk 1 commits only once M's fill drains this
	for i := 0; i < 120; i++ {
		h.AddI(isa.R6, isa.R6, 1) // chunk 1 closes in here
	}
	h.St(isa.R1, 8, isa.R4) // chunk 2: held back by chunk 1's write to L
	h.Halt()

	return [][]*isa.Program{
		onNodeZero(w.MustBuild(), nnodes),
		onNodeZero(r.MustBuild(), nnodes),
		onNodeZero(h.MustBuild(), nnodes),
	}
}

// TestHintAuditApache audits the two selective apache cells of cmd/bench's
// grid — scale 1.0, seed 1, the Figure 6 machine, with the cycle counts
// BENCH_6.json records — and logs their hint-driven and early ticks by
// head plan (run with -v; EXPERIMENTS.md quotes the counts).
func TestHintAuditApache(t *testing.T) {
	if testing.Short() {
		t.Skip("two scale-1.0 apache runs")
	}
	for _, c := range []struct {
		name   string
		model  consistency.Model
		cycles uint64
	}{
		{"Invisi_sc", consistency.SC, 108465},
		{"Invisi_rc", consistency.RC, 108258},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			wl, err := workload.Get("apache", workload.Params{Cores: 16, Model: c.model, Seed: 1, Scale: 1})
			if err != nil {
				t.Fatal(err)
			}
			s := New(figure6Config(SelectiveVariant(c.model)), wl.Programs, wl.RegInit)
			for a, v := range wl.MemInit {
				s.WriteWord(a, v)
			}
			res, rep := runAudited(t, s)
			if !res.Finished || res.Cycles != c.cycles {
				t.Fatalf("apache/%s: finished=%v after %d cycles, want %d", c.name, res.Finished, res.Cycles, c.cycles)
			}
			rep.log(t, fmt.Sprintf("apache/%s, %d node-cycles", c.name, res.Cycles*16))
		})
	}
}

// TestHintAuditGrid audits the 28 cells of perfbench's sim-grid at its
// default seed — the seven paper workloads under sc, invisi-sc, rc and
// invisi-rc at scale 0.25, seed 1 — checks each audited Result against the
// event loop's, and logs the grid's hint-driven and early ticks by wake
// term and head plan (run with -v; EXPERIMENTS.md quotes the counts).
func TestHintAuditGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("28 scale-0.25 runs, each twice")
	}
	var variants []Implementation
	for _, name := range []string{"sc", "invisi-sc", "rc", "invisi-rc"} {
		im, err := LookupImplementation(name)
		if err != nil {
			t.Fatal(err)
		}
		variants = append(variants, im)
	}
	var mu sync.Mutex
	total := newAuditReport()
	t.Cleanup(func() { total.log(t, "sim-grid, seed 1") })
	t.Run("cells", func(t *testing.T) {
		for _, wname := range workload.Names() {
			for _, v := range variants {
				wname, v := wname, v
				t.Run(wname+"/"+v.Name, func(t *testing.T) {
					t.Parallel()
					wl, err := workload.Get(wname, workload.Params{Cores: 16, Model: v.Model, Seed: 1, Scale: 0.25})
					if err != nil {
						t.Fatal(err)
					}
					build := func(lockstep bool) *System {
						cfg := figure6Config(v.Variant)
						cfg.DisableIdleSkip = lockstep
						s := New(cfg, wl.Programs, wl.RegInit)
						for a, w := range wl.MemInit {
							s.WriteWord(a, w)
						}
						return s
					}
					events := build(false).Run()
					audited, rep := runAudited(t, build(true))
					if !audited.Finished || !reflect.DeepEqual(audited, events) {
						t.Fatalf("audited lock-step diverged from the event loop:\naudited: %+v\nevents:  %+v", audited, events)
					}
					mu.Lock()
					total.add(rep)
					mu.Unlock()
				})
			}
		}
	})
}

// figure6Config is the Figure 6 machine (DefaultMachine) running v at
// seed 1, lock-step.
func figure6Config(v Variant) Config {
	cfg := DefaultMachine().Assemble(v, 1)
	cfg.MaxCycles = 500_000_000
	cfg.DisableIdleSkip = true
	return cfg
}
