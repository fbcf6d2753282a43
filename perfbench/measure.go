package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// report accumulates one run's operation counts, metrics and log lines.
// Log lines go to standard output ahead of the result line.
type report struct {
	log       io.Writer
	attempted int
	failed    int
	metrics   map[string]metric
}

func newReport(log io.Writer) *report {
	return &report{log: log, metrics: map[string]metric{}}
}

// op counts one attempted operation; a wrong output (ok false) counts as
// failed and is logged with the reason.
func (r *report) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(r.log, "FAIL "+format+"\n", args...)
	}
}

func (r *report) logf(format string, args ...any) {
	fmt.Fprintf(r.log, format+"\n", args...)
}

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) result() result {
	return result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// point is a process resource snapshot.
type point struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
}

func now() point {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return point{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

// pass is the cost of one timed unit of work (a grid pass, a corpus pass,
// a round of campaigns) and the simulated work it did.
type pass struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	// simulated counts the simulated work the pass did (retired
	// instructions, or litmus runs on litmus-oracle; see README.md).
	simulated uint64
}

func since(p point) pass {
	q := now()
	return pass{wall: q.at.Sub(p.at), cpu: q.cpu - p.cpu, alloc: q.alloc - p.alloc}
}

// endToEnd sets the seven end-to-end metrics: the median of the set-up
// repetitions, the medians over the timed passes, and the latency
// percentiles of every operation in the timed region.
func (r *report) endToEnd(setups []time.Duration, passes []pass, latencies []time.Duration) {
	var walls, cpus, allocs, rates []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		allocs = append(allocs, float64(p.alloc)/(1<<20))
		rates = append(rates, float64(p.simulated)/p.wall.Seconds()/1e6)
	}
	r.set("setup_s", median(seconds(setups)), "s")
	r.set("wall_s", median(walls), "s")
	r.set("cpu_s", median(cpus), "s")
	r.set("alloc_mb", median(allocs), "MB")
	r.set("sim_mips", median(rates), "M/s")
	lat := millis(latencies)
	r.set("campaign_p50_ms", quantile(lat, 0.5), "ms")
	r.set("campaign_p90_ms", quantile(lat, 0.9), "ms")
	r.logf("timed: %d passes, %d latency samples, wall per pass %.3f", len(passes), len(lat), walls)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks (NaN for no
// samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// setupReps is how many times sim-grid and litmus-oracle set up: their
// set-up takes tens of milliseconds, so one repetition is at the mercy of
// a single scheduling hiccup.
const setupReps = 21

// repeatSetup runs set-up reps times, each from a collected heap, and
// returns each duration (setup_s is their median), keeping the value the
// last repetition produced and passing the others to discard.
func repeatSetup[T any](reps int, setup func() (T, error), discard func(T)) (T, []time.Duration, error) {
	var (
		v     T
		times []time.Duration
	)
	for i := 0; i < reps; i++ {
		if i > 0 && discard != nil {
			discard(v)
		}
		runtime.GC()
		start := time.Now()
		var err error
		v, err = setup()
		if err != nil {
			return v, nil, err
		}
		times = append(times, time.Since(start))
	}
	return v, times, nil
}

// timed runs body as timed passes, always at least once, and starts no
// pass that the previous pass's duration says would end past the budget,
// so a run's length stays within its budget whatever a pass costs.
func timed(budget time.Duration, body func(i int) (pass, error)) ([]pass, error) {
	var (
		passes []pass
		last   time.Duration
	)
	start := time.Now()
	for i := 0; i == 0 || time.Since(start)+last <= budget; i++ {
		t := time.Now()
		p, err := body(i)
		if err != nil {
			return nil, err
		}
		last = time.Since(t)
		passes = append(passes, p)
	}
	return passes, nil
}
