package sim

import (
	"reflect"
	"testing"
)

// TestParallelBitExactContention extends the runner bit-exactness contract
// to the link-contention model (DESIGN.md §10): with a finite
// LinkBandwidth, the lock-step loop and the event loop at one, two and
// three clusters must still produce deeply-equal Results —
// including the new contention telemetry, which is simulated machine state.
// Injection-link state is per source node, so the conservative lookahead
// and the shard ordering rule are unaffected; this test is the executable
// form of that argument.
func TestParallelBitExactContention(t *testing.T) {
	for _, c := range runnerCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			contended := func(cfg *Config) { cfg.Net.LinkBandwidth = 3 }
			lockstep := runWith(t, c.model, c.eng, func(cfg *Config) {
				contended(cfg)
				cfg.DisableIdleSkip = true
			})
			for _, k := range []int{1, 2, 3} {
				got := runWith(t, c.model, c.eng, func(cfg *Config) {
					contended(cfg)
					cfg.Clusters = k
				})
				if !reflect.DeepEqual(lockstep, got) {
					t.Errorf("event loop (%d clusters) diverged from lock-step under contention:\nlock-step: %+v\nevents:    %+v", k, lockstep, got)
				}
			}
			// The run must actually exercise the model, or the equalities
			// above prove nothing.
			if lockstep.Net.Messages == 0 || lockstep.Net.QueuedMessages == 0 {
				t.Errorf("contention model not exercised: %+v", lockstep.Net)
			}

			// Bandwidth 0 is the latency-only torus: telemetry-free, and
			// bit-exact with a config that never mentions the knob.
			base := runWith(t, c.model, c.eng, func(cfg *Config) {})
			if base.Net.Messages != 0 {
				t.Errorf("latency-only run accumulated contention telemetry: %+v", base.Net)
			}
			// Queuing only ever delays messages, so a congested run cannot
			// finish faster than the latency-only one.
			if lockstep.Cycles < base.Cycles {
				t.Errorf("contended run finished in %d cycles, faster than latency-only %d", lockstep.Cycles, base.Cycles)
			}
		})
	}
}
