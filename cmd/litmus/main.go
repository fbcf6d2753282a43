// Command litmus sweeps memory-model litmus tests across consistency
// implementations and interleaving seeds, reporting outcome histograms and
// flagging any model-forbidden observation.
//
// Usage:
//
//	litmus                       # full suite
//	litmus -test SB -config tso -seeds 50
package main

import (
	"flag"
	"fmt"
	"os"

	"invisifence"
)

func main() {
	test := flag.String("test", "", "single test (SB, MP, LB, IRIW, SB+F, WRC, CoRR, RMW, ISA2, 2+2W, R, S); empty = all")
	config := flag.String("config", "", "single implementation; empty = all")
	seeds := flag.Int("seeds", 20, "interleaving seeds per (test, config)")
	flag.Parse()

	tests := invisifence.LitmusTests()
	if *test != "" {
		tests = []string{*test}
	}
	configs := invisifence.VariantNames()
	if *config != "" {
		configs = []string{*config}
	}

	violations := 0
	for _, tt := range tests {
		fmt.Printf("== %s ==\n", tt)
		for _, cc := range configs {
			r, err := invisifence.RunLitmus(tt, cc, *seeds)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			fmt.Printf("  %-16s forbidden=%d relaxed=%d outcomes:", r.Config, r.Forbidden, r.Relaxed)
			for _, o := range r.Outcomes {
				fmt.Printf(" %vx%d", o.Values, o.Count)
			}
			fmt.Println()
			violations += r.Forbidden
		}
	}
	if violations > 0 {
		fmt.Printf("\nFAIL: %d forbidden outcomes observed\n", violations)
		os.Exit(1)
	}
	fmt.Println("\nOK: no forbidden outcome under any implementation")
}
