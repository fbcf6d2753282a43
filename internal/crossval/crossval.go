// Package crossval cross-validates the static fence-inference analyzer
// (internal/staticfence) against the dynamic simulator oracle
// (internal/fencesearch) over the full litmus corpus.
//
// For every (test, config) cell it runs both analyzers and classifies the
// cell:
//
//   - match: the analyzers agree exactly — both already-forbidden, or the
//     same family of minimal fence sets.
//   - static-conservative: the static answer is sound but stronger than the
//     machine needs — statically-required fences the implementation makes
//     dynamically unnecessary. This is the paper's performance-transparency
//     claim made concrete (MP's reader-side fence under load-queue
//     snooping).
//   - soundness-violation: the dynamic oracle found behavior the static
//     analysis claims impossible — a hard failure of either analyzer.
//   - skipped: the test has no canonical SC-forbidden target outcome (RMW's
//     atomicity condition is not a single outcome spec).
//
// Soundness is not taken on classification alone: every static minimal set
// is re-verified by direct re-simulation (fences inserted, full seed sweep,
// zero target matches required), independently of the fencesearch cache.
// That re-verification runs serially through litmus.Harness.Sweep; the
// dynamic search's evaluation pool is the package's only parallelism.
package crossval

import (
	"fmt"
	"slices"
	"strings"

	"invisifence/internal/fencesearch"
	"invisifence/internal/isa"
	"invisifence/internal/litmus"
	"invisifence/internal/runcache"
	"invisifence/internal/staticfence"
)

// Class is a cell's classification.
type Class string

// The classifications, from best to worst.
const (
	ClassMatch        Class = "match"
	ClassConservative Class = "static-conservative"
	ClassViolation    Class = "SOUNDNESS-VIOLATION"
	ClassSkipped      Class = "skipped"
)

// Cell is one (test, config) comparison.
type Cell struct {
	Test   string
	Config string
	Class  Class
	// StaticForbidden / DynamicForbidden report each analyzer's
	// already-forbidden verdict (no fences needed).
	StaticForbidden  bool
	DynamicForbidden bool
	// StaticMinimal / DynamicMinimal are the minimal fence-set families
	// (empty when forbidden or skipped).
	StaticMinimal  [][]isa.Site
	DynamicMinimal [][]isa.Site
	// Detail explains violations and conservative cells.
	Detail string
}

// Report is a full corpus cross-validation.
type Report struct {
	Seeds int
	Cells []Cell
}

// Options configures a cross-validation run.
type Options struct {
	// Seeds is the sweep width for the dynamic search and for static-set
	// re-verification (default 48, fencesearch's default).
	Seeds int
	// Workers bounds the dynamic search's evaluation concurrency. Static
	// sets are re-verified serially, one seed after another.
	Workers int
	// Cache is the fencesearch evaluation cache (nil = fresh in-memory).
	Cache *runcache.Cache
	// Tests restricts the corpus to the named tests (nil = all).
	Tests []string
}

// Run cross-validates the corpus.
func Run(opts Options) (*Report, error) {
	if opts.Seeds <= 0 {
		opts.Seeds = 48
	}
	rep := &Report{Seeds: opts.Seeds}
	configs := litmus.AllConfigs()
	for _, t := range litmus.Tests {
		if len(opts.Tests) > 0 && !contains(opts.Tests, t.Name) {
			continue
		}
		if t.Target == nil {
			for _, spec := range configs {
				rep.Cells = append(rep.Cells, Cell{
					Test: t.Name, Config: spec.Name, Class: ClassSkipped,
					Detail: "no canonical SC-forbidden target outcome",
				})
			}
			continue
		}
		bodies := litmus.BodyPrograms(t, isa.NoFences)
		// Static answers depend only on the model; memoize per model.
		statics := map[string]*staticfence.Result{}
		for _, spec := range configs {
			if _, ok := statics[spec.Model.String()]; !ok {
				sr, err := staticfence.Analyze(t.Name, bodies, spec.Model, staticfence.LitmusLayout())
				if err != nil {
					return nil, fmt.Errorf("crossval: %s/%v: %w", t.Name, spec.Model, err)
				}
				statics[spec.Model.String()] = sr
			}
		}
		// The dynamic oracle runs unpruned (fencesearch only prunes when
		// asked): the two analyzers must stay independent here.
		dyn, err := fencesearch.Search(fencesearch.Query{Test: t.Name},
			fencesearch.Options{Seeds: opts.Seeds, Workers: opts.Workers, Cache: opts.Cache})
		if err != nil {
			return nil, fmt.Errorf("crossval: %s dynamic search: %w", t.Name, err)
		}
		for i, spec := range configs {
			st := statics[spec.Model.String()]
			cell, err := classify(t, spec, st, dyn.Models[i], opts)
			if err != nil {
				return nil, err
			}
			rep.Cells = append(rep.Cells, cell)
		}
	}
	return rep, nil
}

func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// classify compares one cell and re-verifies static sufficiency by
// simulation.
func classify(t litmus.Test, spec litmus.ConfigSpec, st *staticfence.Result, dyn fencesearch.ModelResult, opts Options) (Cell, error) {
	cell := Cell{
		Test:             t.Name,
		Config:           spec.Name,
		StaticForbidden:  st.AlreadyForbidden(),
		DynamicForbidden: dyn.AlreadyForbidden,
		StaticMinimal:    st.Minimal,
		DynamicMinimal:   dyn.Minimal,
	}
	// Soundness check 1: statically forbidden cells must be dynamically
	// unreachable.
	if cell.StaticForbidden && !dyn.AlreadyForbidden {
		cell.Class = ClassViolation
		cell.Detail = fmt.Sprintf("statically forbidden but machine produced the target in %d/%d runs", dyn.BaselineMatches, opts.Seeds)
		return cell, nil
	}
	// Soundness check 2: every static minimal set must actually forbid the
	// target when simulated (independent re-verification, no cache).
	for _, set := range st.Minimal {
		matches, err := verifySet(t, spec, st.Graph.Bodies, set, opts.Seeds)
		if err != nil {
			return cell, err
		}
		if matches != 0 {
			cell.Class = ClassViolation
			cell.Detail = fmt.Sprintf("static set %v re-simulated with %d/%d target matches", set, matches, opts.Seeds)
			return cell, nil
		}
	}
	// Soundness check 3: when both analyzers emit fence sets, each static
	// set must cover (contain) some dynamic minimal set — the dynamic walk
	// is exhaustive bottom-up, so a sufficient set with no dynamic subset
	// would mean the oracle itself is broken.
	if !cell.StaticForbidden && !dyn.AlreadyForbidden && len(dyn.Minimal) > 0 {
		for _, set := range st.Minimal {
			if !coversSome(set, dyn.Minimal) {
				cell.Class = ClassViolation
				cell.Detail = fmt.Sprintf("static set %v contains no dynamic minimal set from %v", set, dyn.Minimal)
				return cell, nil
			}
		}
	}
	switch {
	case cell.StaticForbidden && dyn.AlreadyForbidden:
		cell.Class = ClassMatch
	case familiesEqual(st.Minimal, dyn.Minimal):
		cell.Class = ClassMatch
	default:
		cell.Class = ClassConservative
		cell.Detail = conservativeDetail(cell)
	}
	return cell, nil
}

// verifySet inserts the static fence set into the unfenced bodies and
// counts target matches over the seed sweep directly through the litmus
// harness — no fencesearch, no cache.
func verifySet(t litmus.Test, spec litmus.ConfigSpec, bodies []*isa.Program, set []isa.Site, seeds int) (int, error) {
	fenced, err := isa.FenceSet(bodies, set)
	if err != nil {
		return 0, fmt.Errorf("crossval: %s/%s inserting %v: %w", t.Name, spec.Name, set, err)
	}
	h := litmus.Harness{Name: t.Name + "+static", Slots: t.Slots, Finals: t.FinalVars, Bodies: fenced}
	return litmus.CountMatches(h.Sweep(spec, seeds), t.Target), nil
}

// coversSome reports whether the static set contains some dynamic minimal
// set.
func coversSome(set []isa.Site, dyn [][]isa.Site) bool {
	for _, d := range dyn {
		all := true
		for _, s := range d {
			if !slices.Contains(set, s) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// familiesEqual compares the two analyzers' minimal-set families (both are
// emitted sorted by size then lexicographically, each set sorted by
// (thread, pc)).
func familiesEqual(st, dyn [][]isa.Site) bool {
	return slices.EqualFunc(st, dyn, slices.Equal[[]isa.Site])
}

func conservativeDetail(c Cell) string {
	switch {
	case c.DynamicForbidden:
		return "machine never exhibits the target; static analysis still requires fences"
	case len(c.StaticMinimal) < len(c.DynamicMinimal):
		return "machine admits extra minimal solutions the model cannot justify"
	default:
		return "static sets are sound supersets of the dynamic answer"
	}
}

// Violations returns the violating cells (empty on a sound corpus).
func (r *Report) Violations() []Cell {
	var out []Cell
	for _, c := range r.Cells {
		if c.Class == ClassViolation {
			out = append(out, c)
		}
	}
	return out
}

// Counts tallies cells per class in a deterministic order.
func (r *Report) Counts() map[Class]int {
	out := map[Class]int{}
	for _, c := range r.Cells {
		out[c.Class]++
	}
	return out
}

// String renders the deterministic corpus table: one line per cell in
// corpus × config order, then a class summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "crossval: static (delay-set) vs dynamic (simulator) fence inference, %d seeds\n", r.Seeds)
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-6s %-16s %-20s static=%s dynamic=%s",
			c.Test, c.Config, c.Class, family(c.StaticForbidden, c.StaticMinimal), family(c.DynamicForbidden, c.DynamicMinimal))
		if c.Detail != "" {
			fmt.Fprintf(&b, "  (%s)", c.Detail)
		}
		b.WriteString("\n")
	}
	counts := r.Counts()
	fmt.Fprintf(&b, "summary: %d match, %d static-conservative, %d violations, %d skipped\n",
		counts[ClassMatch], counts[ClassConservative], counts[ClassViolation], counts[ClassSkipped])
	return b.String()
}

// family renders a minimal-set family as "{T0@2,T1@2}+{...}".
func family(forbidden bool, sets [][]isa.Site) string {
	if forbidden {
		return "forbidden"
	}
	if len(sets) == 0 {
		return "-"
	}
	out := make([]string, len(sets))
	for i, set := range sets {
		parts := make([]string, len(set))
		for j, s := range set {
			parts[j] = s.String()
		}
		out[i] = "{" + strings.Join(parts, ",") + "}"
	}
	return strings.Join(out, "+")
}
