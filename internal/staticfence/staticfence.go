// Package staticfence infers sufficient fence placements for litmus bodies
// by static critical-cycle (Shasha–Snir delay-set) analysis, refined by
// internal/consistency's per-model ordering relation in the style of
// Alglave et al.'s "Don't sit on the fence".
//
// This is the static counterpart of internal/fencesearch's dynamic oracle:
// instead of simulating candidate placements, it builds an event graph from
// the thread bodies (per-thread program order over shared-memory accesses,
// inter-thread communication edges between conflicting accesses), enumerates
// critical cycles, and keeps the program-order edges a model can actually
// relax. Covering every such *delay edge* with a fence provably restores
// sequential consistency for the program, so the minimal covers emitted here
// are sufficient — but possibly conservative — fence sets: the machine may
// close a reordering window the model leaves open (MP's reader side under
// load-queue snooping), which is exactly the paper's performance-transparency
// claim made checkable. internal/crossval diffs the two analyzers.
//
// Soundness argument (DESIGN.md §12 carries the full version):
//
//  1. The simulated machine is multi-copy atomic — writes propagate through
//     a single directory serialization point — so every execution that
//     violates SC embeds a critical cycle of program-order and
//     communication edges (Shasha & Snir).
//  2. A critical cycle can materialize only if at least one of its
//     program-order edges is relaxed by the model: if every po edge is
//     enforced, the cycle's po∪com order is acyclic in every execution.
//  3. A full fence between two accesses enforces their order under every
//     model (the consistency relation orders every class against a fence;
//     the machine drains the store buffer at it, plus in-order retirement).
//     Same-address pairs are always enforced (coherence; the CoRR test).
//  4. Therefore fencing every relaxable po edge of every critical cycle
//     leaves no cycle materializable: the outcome set is SC.
//
// The analysis is deliberately restricted to what it can prove: bodies must
// be straight-line (no branches) and address only the litmus protocol's
// shared and result areas with immediate offsets; anything else is refused
// with an error rather than analyzed optimistically.
package staticfence

import (
	"fmt"
	"sort"
	"strings"

	"invisifence/internal/consistency"
	"invisifence/internal/isa"
	"invisifence/internal/litmus"
)

// Event is one shared-memory access of the event graph.
type Event struct {
	Thread int
	PC     int
	Class  consistency.Class
	Var    int // shared-variable index (offset / stride)
	id     int // global enumeration index
}

// String renders "T0@2:st(v1)".
func (e Event) String() string {
	return fmt.Sprintf("T%d@%d:%v(v%d)", e.Thread, e.PC, e.Class, e.Var)
}

// POEdge is a program-order edge between two events of one thread
// (From.PC < To.PC).
type POEdge struct {
	From, To Event
}

// String implements fmt.Stringer.
func (e POEdge) String() string {
	return fmt.Sprintf("T%d@%d->@%d (%v->%v)", e.From.Thread, e.From.PC, e.To.PC, e.From.Class, e.To.Class)
}

// Layout names the base registers and stride of the address protocol the
// bodies follow. Accesses off the shared base conflict across threads;
// accesses off the result base are thread-private (verified, not assumed);
// any other base register is refused.
type Layout struct {
	SharedBase isa.Reg
	ResultBase isa.Reg
	Stride     int64
}

// LitmusLayout is the litmus suite's protocol (R4 shared, R5 results).
func LitmusLayout() Layout {
	return Layout{SharedBase: litmus.VarsReg, ResultBase: litmus.ResultsReg, Stride: litmus.VarStride}
}

// Graph is the static event graph of a multi-threaded program.
type Graph struct {
	Name string
	// Bodies are the analyzed programs (needed for fence-site spans and
	// existing-fence detection).
	Bodies []*isa.Program
	// Threads holds each thread's shared events in program order.
	Threads [][]Event

	events []Event // flattened by id
}

// BuildGraph extracts the event graph, refusing programs it cannot analyze
// soundly: branches, non-protocol base registers, misaligned offsets, or a
// result-area slot touched by more than one thread.
func BuildGraph(name string, bodies []*isa.Program, lay Layout) (*Graph, error) {
	g := &Graph{Name: name, Bodies: bodies, Threads: make([][]Event, len(bodies))}
	resultOwner := map[int64]int{} // result-area offset -> owning thread
	for t, body := range bodies {
		if isa.HasBranch(body) {
			return nil, fmt.Errorf("staticfence: %s thread %d has branches; static program order undefined", name, t)
		}
		for _, a := range isa.MemAccesses(body) {
			switch a.Base {
			case lay.SharedBase:
				v, ok := litmusVar(a.Off, lay.Stride)
				if !ok {
					return nil, fmt.Errorf("staticfence: %s T%d@%d shared access at off-stride offset %d", name, t, a.PC, a.Off)
				}
				e := Event{Thread: t, PC: a.PC, Class: consistency.ClassOf(a.Op), Var: v, id: len(g.events)}
				g.Threads[t] = append(g.Threads[t], e)
				g.events = append(g.events, e)
			case lay.ResultBase:
				if owner, seen := resultOwner[a.Off]; seen && owner != t {
					return nil, fmt.Errorf("staticfence: %s result offset %d written by threads %d and %d; result area is not private", name, a.Off, owner, t)
				}
				resultOwner[a.Off] = t
			default:
				return nil, fmt.Errorf("staticfence: %s T%d@%d uses base r%d outside the litmus protocol", name, t, a.PC, a.Base)
			}
		}
	}
	return g, nil
}

func litmusVar(off, stride int64) (int, bool) {
	if off < 0 || stride <= 0 || off%stride != 0 {
		return 0, false
	}
	return int(off / stride), true
}

// conflict reports whether two events can communicate: different threads,
// same variable, at least one writer.
func conflict(a, b Event) bool {
	return a.Thread != b.Thread && a.Var == b.Var && (a.Class.Writes() || b.Class.Writes())
}

// Cycle is one critical cycle: the event sequence in traversal order, where
// consecutive events (wrapping around) are connected by a program-order
// edge (same thread) or a communication edge (conflicting accesses).
type Cycle struct {
	Events []Event
	// PO lists the cycle's program-order edges (same-thread consecutive
	// pairs), in traversal order.
	PO []POEdge
}

// String renders "T0@1:st(v0) ->po-> T0@2:st(v1) ->com-> ...".
func (c Cycle) String() string {
	var b strings.Builder
	for i, e := range c.Events {
		if i > 0 {
			b.WriteString(edgeLabel(c.Events[i-1], e))
		}
		b.WriteString(e.String())
		_ = i
	}
	b.WriteString(edgeLabel(c.Events[len(c.Events)-1], c.Events[0]))
	b.WriteString("(cycle)")
	return b.String()
}

func edgeLabel(a, b Event) string {
	if a.Thread == b.Thread {
		return " ->po-> "
	}
	return " ->com-> "
}

// CriticalCycles enumerates the graph's critical cycles: simple cycles over
// po and com edges spanning at least two threads, visiting at most two
// events per thread as one contiguous arc, and containing at least one po
// edge. Enumerating *more* cycles than Shasha–Snir's minimal criticality
// criterion (we skip the at-most-three-accesses-per-variable refinement)
// only adds delay edges, which keeps the answer sufficient — conservatism
// is sound here, under-enumeration is not.
func (g *Graph) CriticalCycles() []Cycle {
	var cycles []Cycle
	n := len(g.events)
	seen := map[string]bool{}
	var path []Event
	var dfs func(start, cur int)
	dfs = func(start, cur int) {
		u := g.events[cur]
		for next := 0; next < n; next++ {
			v := g.events[next]
			if next == start && len(path) >= 2 {
				if okStep(path, u, v, true) {
					c := makeCycle(path)
					if critical(c) {
						sig := cycleSig(c)
						if !seen[sig] {
							seen[sig] = true
							cycles = append(cycles, c)
						}
					}
				}
				continue
			}
			if next <= start || onPath(path, v) {
				continue // canonical start = smallest id; simple paths only
			}
			if !okStep(path, u, v, false) {
				continue
			}
			path = append(path, v)
			dfs(start, next)
			path = path[:len(path)-1]
		}
	}
	for s := 0; s < n; s++ {
		path = append(path[:0], g.events[s])
		dfs(s, s)
	}
	sort.Slice(cycles, func(i, j int) bool { return cycleSig(cycles[i]) < cycleSig(cycles[j]) })
	return cycles
}

// okStep reports whether the walk may step u -> v: a po edge (same thread,
// forward) that does not extend a same-thread run past two events, or a com
// edge between conflicting accesses. closing marks the edge back to the
// path's first event.
func okStep(path []Event, u, v Event, closing bool) bool {
	if u.Thread == v.Thread {
		if v.PC <= u.PC {
			return false
		}
		// A po step after a po step would put three events in one thread.
		if len(path) >= 2 && path[len(path)-2].Thread == u.Thread {
			return false
		}
		if closing {
			// Closing po edge: first event is in the same thread; the run
			// first..u..first would fold the thread's arc around the seam.
			return false
		}
		return true
	}
	return conflict(u, v)
}

func onPath(path []Event, e Event) bool {
	for _, p := range path {
		if p.id == e.id {
			return true
		}
	}
	return false
}

func makeCycle(path []Event) Cycle {
	c := Cycle{Events: append([]Event(nil), path...)}
	for i, e := range c.Events {
		next := c.Events[(i+1)%len(c.Events)]
		if e.Thread == next.Thread {
			c.PO = append(c.PO, POEdge{From: e, To: next})
		}
	}
	return c
}

// critical applies the post-filters: at least two threads, at least one po
// edge, at most two events per thread, and each thread's events contiguous
// in circular order.
func critical(c Cycle) bool {
	if len(c.PO) == 0 {
		return false
	}
	maxT := 0
	for _, e := range c.Events {
		if e.Thread > maxT {
			maxT = e.Thread
		}
	}
	counts := make([]int, maxT+1)
	threads := 0
	for _, e := range c.Events {
		if counts[e.Thread] == 0 {
			threads++
		}
		counts[e.Thread]++
		if counts[e.Thread] > 2 {
			return false
		}
	}
	if threads < 2 {
		return false
	}
	// Contiguity: the number of circular thread changes must equal the
	// number of distinct threads (each thread = one arc).
	changes := 0
	for i, e := range c.Events {
		next := c.Events[(i+1)%len(c.Events)]
		if e.Thread != next.Thread {
			changes++
		}
	}
	return changes == threads
}

func cycleSig(c Cycle) string {
	ids := make([]int, len(c.Events))
	for i, e := range c.Events {
		ids[i] = e.id
	}
	return fmt.Sprint(ids)
}

// Result is a full static analysis under one model.
type Result struct {
	Name  string
	Model consistency.Model
	Graph *Graph
	// Cycles lists every critical cycle; Feasible[i] reports whether cycle
	// i has at least one relaxed (reorderable, unfenced, distinct-address)
	// po edge under the model — only feasible cycles can materialize.
	Cycles   []Cycle
	Feasible []bool
	// Delays is the model-refined delay set: the union over feasible
	// cycles of their relaxed po edges, deduplicated and sorted.
	Delays []POEdge
	// Sites is the fence-site candidate list (isa.Sites, identical to
	// internal/fencesearch's).
	Sites []isa.Site
	// Minimal lists the minimal fence-site covers of the delay set: each
	// set cuts every delay edge, no strict subset does, sorted by size
	// then lexicographically. Empty iff Delays is empty.
	Minimal [][]isa.Site
}

// Analyze builds the event graph and computes the delay set and minimal
// covers for one model.
func Analyze(name string, bodies []*isa.Program, m consistency.Model, lay Layout) (*Result, error) {
	g, err := BuildGraph(name, bodies, lay)
	if err != nil {
		return nil, err
	}
	r := &Result{Name: name, Model: m, Graph: g, Cycles: g.CriticalCycles()}
	r.Feasible = make([]bool, len(r.Cycles))
	seen := map[POEdge]bool{}
	for i, c := range r.Cycles {
		var relaxed []POEdge
		for _, e := range c.PO {
			if r.relaxed(e) {
				relaxed = append(relaxed, e)
			}
		}
		if len(relaxed) == 0 {
			continue
		}
		r.Feasible[i] = true
		for _, e := range relaxed {
			key := POEdge{From: Event{Thread: e.From.Thread, PC: e.From.PC}, To: Event{Thread: e.To.Thread, PC: e.To.PC}}
			if !seen[key] {
				seen[key] = true
				r.Delays = append(r.Delays, e)
			}
		}
	}
	sort.Slice(r.Delays, func(i, j int) bool {
		a, b := r.Delays[i], r.Delays[j]
		if a.From.Thread != b.From.Thread {
			return a.From.Thread < b.From.Thread
		}
		if a.From.PC != b.From.PC {
			return a.From.PC < b.From.PC
		}
		return a.To.PC < b.To.PC
	})
	r.Sites = isa.Sites(bodies)
	r.Minimal, err = minimalCovers(r.Delays, r.Sites)
	if err != nil {
		return nil, fmt.Errorf("staticfence: %s/%v: %w", name, m, err)
	}
	return r, nil
}

// relaxed reports whether a po edge can be inverted by the model: the pair
// must be on distinct variables, not ordered by the model's relation
// (InvisiFence/ASO configs analyze under their base model), and not
// already separated by a fence in the instruction stream.
func (r *Result) relaxed(e POEdge) bool {
	if e.From.Var == e.To.Var {
		return false
	}
	if consistency.Orders(r.Model, e.From.Class, e.To.Class) {
		return false
	}
	return !isa.FenceBetween(r.Graph.Bodies[e.From.Thread], e.From.PC, e.To.PC)
}

// AlreadyForbidden reports that no critical cycle is feasible under the
// model: every SC-forbidden outcome of this program is statically ruled out
// with no fences at all.
func (r *Result) AlreadyForbidden() bool { return len(r.Delays) == 0 }

// Cuts reports whether a fence at the site orders the edge's endpoints: the
// site lies strictly after From and at-or-before To in the same thread
// (isa.InsertFences places the fence immediately before the site's PC).
func Cuts(s isa.Site, e POEdge) bool {
	return s.Thread == e.From.Thread && e.From.PC < s.PC && s.PC <= e.To.PC
}

// Sufficient reports whether the site set cuts every delay edge — the
// static sufficiency certificate used by fencesearch's pruned walk.
func (r *Result) Sufficient(set []isa.Site) bool {
	for _, d := range r.Delays {
		cut := false
		for _, s := range set {
			if Cuts(s, d) {
				cut = true
				break
			}
		}
		if !cut {
			return false
		}
	}
	return true
}

// WalkSites returns the candidate sites that cut at least one po edge of
// at least one critical cycle (feasible or not). A fence anywhere else can
// only order pairs that no communication cycle passes through — it cannot
// change which outcomes are reachable, so a search walk may skip it.
func (r *Result) WalkSites() []isa.Site {
	var poEdges []POEdge
	for _, c := range r.Cycles {
		poEdges = append(poEdges, c.PO...)
	}
	var out []isa.Site
	for _, s := range r.Sites {
		for _, e := range poEdges {
			if Cuts(s, e) {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// minimalCovers enumerates every minimal site set covering all delay edges.
// An error means some delay edge has no cutting site, which the fence-site
// construction should make impossible (the edge's To is itself a site
// unless a fence already precedes it, in which case the edge is not a
// delay).
func minimalCovers(delays []POEdge, sites []isa.Site) ([][]isa.Site, error) {
	if len(delays) == 0 {
		return nil, nil
	}
	for _, d := range delays {
		any := false
		for _, s := range sites {
			if Cuts(s, d) {
				any = true
				break
			}
		}
		if !any {
			return nil, fmt.Errorf("delay edge %v has no candidate fence site", d)
		}
	}
	var covers [][]isa.Site
	var rec func(chosen []isa.Site)
	rec = func(chosen []isa.Site) {
		// First uncovered delay edge.
		var need *POEdge
		for i := range delays {
			covered := false
			for _, s := range chosen {
				if Cuts(s, delays[i]) {
					covered = true
					break
				}
			}
			if !covered {
				need = &delays[i]
				break
			}
		}
		if need == nil {
			covers = append(covers, append([]isa.Site(nil), chosen...))
			return
		}
		for _, s := range sites {
			if Cuts(s, *need) {
				rec(append(chosen, s))
			}
		}
	}
	rec(nil)
	return canonicalizeCovers(covers), nil
}

// canonicalizeCovers sorts each cover, deduplicates, drops non-minimal
// covers (strict supersets of another cover), and orders the family by
// size then lexicographically.
func canonicalizeCovers(covers [][]isa.Site) [][]isa.Site {
	seen := map[string]bool{}
	var uniq [][]isa.Site
	for _, c := range covers {
		sort.Slice(c, func(i, j int) bool { return c[i].Less(c[j]) })
		c = dedupeSites(c)
		sig := fmt.Sprint(c)
		if !seen[sig] {
			seen[sig] = true
			uniq = append(uniq, c)
		}
	}
	var minimal [][]isa.Site
	for i, c := range uniq {
		dominated := false
		for j, d := range uniq {
			if i != j && len(d) < len(c) && siteSubset(d, c) {
				dominated = true
				break
			}
		}
		if !dominated {
			minimal = append(minimal, c)
		}
	}
	sort.Slice(minimal, func(i, j int) bool {
		a, b := minimal[i], minimal[j]
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k].Less(b[k])
			}
		}
		return false
	})
	return minimal
}

func dedupeSites(set []isa.Site) []isa.Site {
	out := set[:0]
	for i, s := range set {
		if i == 0 || s != set[i-1] {
			out = append(out, s)
		}
	}
	return out
}

func siteSubset(a, b []isa.Site) bool {
	for _, s := range a {
		found := false
		for _, x := range b {
			if x == s {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Report renders the deterministic analysis report: events, sites, cycles
// with feasibility, the delay set, and the minimal fence covers.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "staticfence: %s model=%v events=%d cycles=%d\n", r.Name, r.Model, len(r.Graph.events), len(r.Cycles))
	for t, evs := range r.Graph.Threads {
		parts := make([]string, len(evs))
		for i, e := range evs {
			parts[i] = fmt.Sprintf("@%d:%v(v%d)", e.PC, e.Class, e.Var)
		}
		fmt.Fprintf(&b, "  T%d: %s\n", t, strings.Join(parts, " "))
	}
	for i, s := range r.Sites {
		fmt.Fprintf(&b, "  s%-2d %v: %s\n", i, s, r.Graph.Bodies[s.Thread].Instrs[s.PC].String())
	}
	for i, c := range r.Cycles {
		tag := "infeasible"
		if r.Feasible[i] {
			tag = "FEASIBLE"
		}
		fmt.Fprintf(&b, "  c%-2d %-10s %s\n", i, tag, c.String())
	}
	if r.AlreadyForbidden() {
		fmt.Fprintf(&b, "  delay set empty: all SC-forbidden outcomes statically forbidden under %v\n", r.Model)
		return b.String()
	}
	for _, d := range r.Delays {
		fmt.Fprintf(&b, "  delay %v\n", d)
	}
	for _, set := range r.Minimal {
		parts := make([]string, len(set))
		for i, s := range set {
			parts[i] = s.String()
		}
		fmt.Fprintf(&b, "  minimal {%s}\n", strings.Join(parts, ", "))
	}
	return b.String()
}
