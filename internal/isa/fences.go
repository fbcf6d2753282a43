package isa

import (
	"fmt"
	"sort"
)

// Insertion places one instruction immediately before the instruction at
// PC in the original program (PC == Len() appends). The inserted
// instruction must not be a branch: Target fields of insertions are not
// remapped.
type Insertion struct {
	PC int
	In Instr
}

// InsertBefore returns a new program with the given instructions inserted.
// Multiple insertions at the same PC keep their slice order. Branch targets
// and labels of the original program are remapped so control flow is
// preserved; a branch whose target receives insertions lands on the first
// inserted instruction (CFG-point semantics: every edge into the point
// executes the insertion, including loop back-edges).
func InsertBefore(p *Program, ins []Insertion) (*Program, error) {
	if len(ins) == 0 {
		cp := *p
		return &cp, nil
	}
	sorted := make([]Insertion, len(ins))
	copy(sorted, ins)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].PC < sorted[b].PC })
	for _, in := range sorted {
		if in.PC < 0 || in.PC > p.Len() {
			return nil, fmt.Errorf("isa: insertion PC %d out of range [0,%d] in %s", in.PC, p.Len(), p.Name)
		}
		if in.In.Op.IsBranch() {
			return nil, fmt.Errorf("isa: cannot insert branch %v in %s", in.In.Op, p.Name)
		}
	}
	// shift(t) = number of insertions strictly before original index t:
	// original instruction i moves to i + #{PC <= i}; a reference to point
	// t resolves to t + shift(t), the first instruction inserted at t (or
	// the original instruction when none is).
	shift := func(t int) int {
		n := 0
		for _, in := range sorted {
			if in.PC < t {
				n++
			}
		}
		return t + n
	}
	instrs := make([]Instr, 0, p.Len()+len(sorted))
	next := 0
	for i := 0; i <= p.Len(); i++ {
		for next < len(sorted) && sorted[next].PC == i {
			instrs = append(instrs, sorted[next].In)
			next++
		}
		if i == p.Len() {
			break
		}
		in := p.Instrs[i]
		if in.Op.IsBranch() {
			in.Target = shift(in.Target)
		}
		instrs = append(instrs, in)
	}
	labels := make(map[string]int, len(p.Labels))
	for name, pc := range p.Labels {
		labels[name] = shift(pc)
	}
	return &Program{Name: p.Name, Instrs: instrs, Labels: labels}, nil
}

// InsertFences returns a new program with a full Fence inserted immediately
// before each of the given original PCs (duplicates are collapsed). This is
// the fence-placement primitive of the fence-insertion search: a placement
// is identified by original-program PCs, so placements compose and compare
// independently of each other's index shifts.
func InsertFences(p *Program, pcs []int) (*Program, error) {
	if len(pcs) == 0 {
		cp := *p
		return &cp, nil
	}
	uniq := make([]int, 0, len(pcs))
	seen := make(map[int]bool, len(pcs))
	for _, pc := range pcs {
		if !seen[pc] {
			seen[pc] = true
			uniq = append(uniq, pc)
		}
	}
	sort.Ints(uniq)
	ins := make([]Insertion, len(uniq))
	for i, pc := range uniq {
		ins[i] = Insertion{PC: pc, In: Instr{Op: Fence}}
	}
	np, err := InsertBefore(p, ins)
	if err != nil {
		return nil, err
	}
	np.Name = fmt.Sprintf("%s+F%v", p.Name, uniq)
	return np, nil
}

// FenceSites enumerates the candidate fence-insertion points of a program:
// every PC whose instruction touches memory and that has at least one
// earlier (program-index) memory access — the points where a fence can
// constrain the ordering of two accesses. PCs already preceded by a Fence
// are skipped (inserting another there is redundant). The result is sorted
// ascending and forms the per-thread dimension of the fence-placement
// lattice searched by internal/fencesearch.
func FenceSites(p *Program) []int {
	var sites []int
	seenMem := false
	for pc, in := range p.Instrs {
		if !in.Op.IsMem() {
			continue
		}
		if seenMem && !(pc > 0 && p.Instrs[pc-1].Op == Fence) {
			sites = append(sites, pc)
		}
		seenMem = true
	}
	return sites
}

// Site is one fence-insertion point: immediately before the instruction at
// PC in thread Thread's body program, PC counted before any harness prefix
// (the vocabulary of FenceSites). It is how the static delay-set analysis,
// the simulator-driven fence search and their cross-validation all name a
// fence.
type Site struct {
	Thread int
	PC     int
}

// String renders "T1@2".
func (s Site) String() string { return fmt.Sprintf("T%d@%d", s.Thread, s.PC) }

// Less orders sites by thread, then PC: the order of Sites and of every
// reported fence set.
func (s Site) Less(o Site) bool {
	if s.Thread != o.Thread {
		return s.Thread < o.Thread
	}
	return s.PC < o.PC
}

// Sites lists the candidate fence sites of a multi-threaded program: each
// body's FenceSites, thread-major.
func Sites(bodies []*Program) []Site {
	var out []Site
	for t, b := range bodies {
		for _, pc := range FenceSites(b) {
			out = append(out, Site{Thread: t, PC: pc})
		}
	}
	return out
}

// FenceSet returns the bodies with a full fence inserted before every site
// of set, through InsertFences per thread (a thread with no site gets a
// copy of its body). A site naming a thread outside bodies is an error.
func FenceSet(bodies []*Program, set []Site) ([]*Program, error) {
	pcs := make([][]int, len(bodies))
	for _, s := range set {
		if s.Thread < 0 || s.Thread >= len(bodies) {
			return nil, fmt.Errorf("isa: fence site %v: thread out of range [0,%d)", s, len(bodies))
		}
		pcs[s.Thread] = append(pcs[s.Thread], s.PC)
	}
	fenced := make([]*Program, len(bodies))
	for t, b := range bodies {
		f, err := InsertFences(b, pcs[t])
		if err != nil {
			return nil, err
		}
		fenced[t] = f
	}
	return fenced, nil
}
