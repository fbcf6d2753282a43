// Package faultinject is a deterministic, seeded fault-injection framework
// for the service layer's chaos tests. A Plan arms faults — errors, panics,
// delays, payload corruption — at named sites (seams such as the runcache's
// disk reads, a flight leader, a Pool worker, or sweepd's cell-simulate
// hook) by hit count: rule K fires on probe numbers [After, After+Count) of
// its kind at its site, so the same plan replays the same fault schedule on
// every run with the same probe order.
//
// The framework is built to cost nothing when disarmed: every probe is a
// method on a *Injector that is nil-safe, so an unarmed seam is a nil check
// and a return — no allocation, no lock, no time read. Production code
// never constructs an Injector; only tests (and explicitly armed servers)
// do.
//
// Probes are one line at the seam they harden:
//
//	if err := inj.Err("runcache.write"); err != nil { return err }
//	inj.Delay("pool.worker")
//	inj.MaybePanic("flight.leader")
//	data = inj.Corrupt("runcache.read", data)
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Kind classifies a fault.
type Kind uint8

const (
	// KindError makes Err return an *InjectedError at the site.
	KindError Kind = iota + 1
	// KindPanic makes MaybePanic panic with an *InjectedError.
	KindPanic
	// KindDelay makes Delay sleep for the rule's Delay duration.
	KindDelay
	// KindCorrupt makes Corrupt flip deterministic pseudo-random bytes of
	// the payload.
	KindCorrupt
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Rule arms one fault: probes of the rule's Kind at Site fire on hit
// numbers [After, After+Count), counted per rule from zero. Count <= 0
// means one hit, so the zero rule fires exactly once, immediately.
type Rule struct {
	// Site names the seam ("runcache.read", "flight.leader", ...).
	Site string
	// Kind selects which probe method the rule answers.
	Kind Kind
	// After is the number of probes of this kind at this site that pass
	// untouched before the rule starts firing.
	After int
	// Count is the number of consecutive probes affected (<= 0 means 1).
	Count int
	// Delay is the pause length for KindDelay rules.
	Delay time.Duration
}

// Plan is a full fault schedule: a seed (for corruption byte choice and
// RandomPlan derivation) plus the armed rules.
type Plan struct {
	Seed  int64
	Rules []Rule
}

// Stats counts fired faults since New.
type Stats struct {
	Errors   uint64 `json:"errors"`
	Panics   uint64 `json:"panics"`
	Delays   uint64 `json:"delays"`
	Corrupts uint64 `json:"corrupts"`
}

// Total sums all fired faults.
func (s Stats) Total() uint64 { return s.Errors + s.Panics + s.Delays + s.Corrupts }

// InjectedError is the error value of KindError faults and the panic
// value of KindPanic faults, so tests can distinguish injected failures
// from organic ones.
type InjectedError struct {
	Site string
	Kind Kind
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected %s at %s", e.Kind, e.Site)
}

// armedRule is one rule plus its live hit counter.
type armedRule struct {
	Rule
	hits int
}

// Injector executes a compiled Plan. The nil *Injector is the disarmed
// state: every probe returns immediately. All methods are safe for
// concurrent use.
type Injector struct {
	mu    sync.Mutex
	rules map[string][]*armedRule // keyed by site
	rng   *rand.Rand
	sleep func(time.Duration)
	stats Stats
}

// New compiles a plan into an injector. A nil plan yields a nil (fully
// disarmed) injector.
func New(plan *Plan) *Injector {
	if plan == nil {
		return nil
	}
	in := &Injector{
		rules: make(map[string][]*armedRule, len(plan.Rules)),
		rng:   rand.New(rand.NewSource(plan.Seed)),
		sleep: time.Sleep,
	}
	for _, r := range plan.Rules {
		if r.Count <= 0 {
			r.Count = 1
		}
		in.rules[r.Site] = append(in.rules[r.Site], &armedRule{Rule: r})
	}
	return in
}

// SetSleep overrides the delay primitive (tests substitute a no-op or a
// recording sleeper so chaos runs stay fast).
func (in *Injector) SetSleep(f func(time.Duration)) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.sleep = f
	in.mu.Unlock()
}

// fire advances every rule of the kind at the site and returns the first
// rule whose window covers this hit.
func (in *Injector) fire(site string, kind Kind) *armedRule {
	var hit *armedRule
	for _, r := range in.rules[site] {
		if r.Kind != kind {
			continue
		}
		n := r.hits
		r.hits++
		if hit == nil && n >= r.After && n < r.After+r.Count {
			hit = r
		}
	}
	return hit
}

// Err probes the site for a KindError rule, returning a non-nil
// *InjectedError when one fires.
func (in *Injector) Err(site string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.fire(site, KindError) == nil {
		return nil
	}
	in.stats.Errors++
	return &InjectedError{Site: site, Kind: KindError}
}

// MaybePanic probes the site for a KindPanic rule, panicking with an
// *InjectedError when one fires.
func (in *Injector) MaybePanic(site string) {
	if in == nil {
		return
	}
	in.mu.Lock()
	fired := in.fire(site, KindPanic) != nil
	if fired {
		in.stats.Panics++
	}
	in.mu.Unlock()
	if fired {
		panic(&InjectedError{Site: site, Kind: KindPanic})
	}
}

// Delay probes the site for a KindDelay rule, sleeping for the rule's
// Delay when one fires.
func (in *Injector) Delay(site string) {
	if in == nil {
		return
	}
	in.mu.Lock()
	r := in.fire(site, KindDelay)
	if r != nil {
		in.stats.Delays++
	}
	sleep := in.sleep
	in.mu.Unlock()
	if r != nil && r.Delay > 0 {
		sleep(r.Delay)
	}
}

// Corrupt probes the site for a KindCorrupt rule. When one fires it
// returns a copy of data with a few seeded pseudo-random bytes flipped
// (never the original slice); otherwise it returns data unchanged. Empty
// payloads pass through untouched.
func (in *Injector) Corrupt(site string, data []byte) []byte {
	if in == nil {
		return data
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.fire(site, KindCorrupt) == nil || len(data) == 0 {
		return data
	}
	in.stats.Corrupts++
	out := append([]byte(nil), data...)
	flips := 1 + in.rng.Intn(3)
	for i := 0; i < flips; i++ {
		p := in.rng.Intn(len(out))
		out[p] ^= byte(1 + in.rng.Intn(255))
	}
	return out
}

// Stats snapshots the fired-fault counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Armed reports whether the injector carries any rules.
func (in *Injector) Armed() bool { return in != nil }

// RandomPlan derives a deterministic pseudo-random plan from the seed:
// zero to two rules per site, with kinds, hit windows, and small delays
// drawn from a generator seeded only by seed. The same (seed, sites)
// always produces the same plan — the chaos suite's pinned seed list is a
// pinned fault schedule.
func RandomPlan(seed int64, sites []string) *Plan {
	rng := rand.New(rand.NewSource(seed))
	kinds := []Kind{KindError, KindPanic, KindDelay, KindCorrupt}
	p := &Plan{Seed: seed}
	for _, site := range sites {
		for n := rng.Intn(3); n > 0; n-- {
			p.Rules = append(p.Rules, Rule{
				Site:  site,
				Kind:  kinds[rng.Intn(len(kinds))],
				After: rng.Intn(4),
				Count: 1 + rng.Intn(3),
				Delay: time.Duration(1+rng.Intn(10)) * time.Millisecond,
			})
		}
	}
	return p
}
