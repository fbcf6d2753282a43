package invisifence

import (
	"fmt"
	"sort"

	"invisifence/internal/litmus"
	"invisifence/internal/sim"
)

// LitmusOutcome is one observed litmus-test outcome with its frequency.
type LitmusOutcome struct {
	Values [4]uint64
	Count  int
}

// LitmusResult summarizes a litmus sweep under one implementation.
type LitmusResult struct {
	Test      string
	Config    string
	Runs      int
	Outcomes  []LitmusOutcome
	Forbidden int // runs that produced a model-forbidden outcome (must be 0)
	Relaxed   int // runs showing the tracked relaxed outcome
}

// LitmusTests lists the available litmus tests (SB, MP, LB, IRIW, SB+F,
// WRC, CoRR, RMW, ISA2, 2+2W, R, S).
func LitmusTests() []string {
	names := make([]string, len(litmus.Tests))
	for i, t := range litmus.Tests {
		names[i] = t.Name
	}
	return names
}

// RunLitmus sweeps one litmus test under one implementation (a
// VariantNames name) across seeds, reporting outcome frequencies and any
// forbidden observations.
func RunLitmus(test, config string, seeds int) (LitmusResult, error) {
	var tt *litmus.Test
	for i := range litmus.Tests {
		if litmus.Tests[i].Name == test {
			tt = &litmus.Tests[i]
			break
		}
	}
	if tt == nil {
		return LitmusResult{}, fmt.Errorf("invisifence: unknown litmus test %q (have %v)", test, LitmusTests())
	}
	spec, err := sim.LookupImplementation(config)
	if err != nil {
		return LitmusResult{}, fmt.Errorf("invisifence: litmus: %w", err)
	}
	r := litmus.Run(*tt, spec, seeds)
	out := LitmusResult{
		Test:      r.Test,
		Config:    r.Config,
		Runs:      r.Runs,
		Forbidden: len(r.Violations),
		Relaxed:   r.Relaxed,
	}
	for o, n := range r.Outcomes {
		var vals [4]uint64
		for i, v := range o {
			vals[i] = uint64(v)
		}
		out.Outcomes = append(out.Outcomes, LitmusOutcome{Values: vals, Count: n})
	}
	// Map iteration order is randomized per invocation; sort outcomes
	// canonically by their observed values so repeated sweeps (and repeated
	// cmd/litmus runs) report byte-identical histograms.
	sort.Slice(out.Outcomes, func(i, j int) bool {
		a, b := out.Outcomes[i].Values, out.Outcomes[j].Values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out, nil
}
