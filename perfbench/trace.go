package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op
// (a cell, corpus query or campaign id); Parent is the enclosing span's
// ID (0 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written once, at the end of the
// run. Safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID for end and for child spans.
func (t *tracer) begin(name, op string, parent int) int {
	at := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, Start: at})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	at := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}

// stats returns the summed duration and the count of spans named name.
func (t *tracer) stats(name string) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += time.Duration(s.End - s.Start)
			n++
		}
	}
	return sum, n
}

// meanMillis is the mean duration of the spans named name, in ms.
func (t *tracer) meanMillis(name string) float64 {
	sum, n := t.stats(name)
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / float64(time.Millisecond)
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// perLayer lists every per-layer metric with its unit. Every traced run
// reports all of them; a layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"cpu.self_s", "s"}, {"cpu.ns_per_instr", "ns"}, {"cpu.retired", "count"},
	{"cpu.mispredicts", "count"}, {"cpu.replays", "count"},
	{"sim.run_s", "s"}, {"sim.self_s", "s"}, {"sim.node_ticks", "count"},
	{"sim.skipped_node_cycles", "count"}, {"sim.new_ms", "ms"}, {"sim.cell_ms", "ms"},
	{"workload.get_ms", "ms"}, {"workload.validate_ms", "ms"},
	{"node.self_s", "s"}, {"node.prefetches", "count"},
	{"cache.self_s", "s"}, {"cache.l2_hit_fills", "count"},
	{"coherence.self_s", "s"}, {"coherence.remote_fills", "count"},
	{"network.self_s", "s"},
	{"core.self_s", "s"}, {"core.speculations", "count"}, {"core.commit_ratio", "ratio"},
	{"core.aborts", "count"},
	{"storebuffer.self_s", "s"}, {"storebuffer.full_cycles", "cycles"},
	{"storebuffer.drain_cycles", "cycles"},
	{"runtime.self_s", "s"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"staticfence.analyze_ms", "ms"}, {"fencesearch.search_s", "s"},
	{"fencesearch.evaluations", "count"}, {"fencesearch.simulated_runs", "count"},
	{"fencesearch.cache_hits", "count"}, {"litmus.us_per_run", "us"},
	{"runcache.hits", "count"}, {"runcache.misses", "count"}, {"runcache.puts", "count"},
	{"runcache.errors", "count"}, {"runcache.flight_leaders", "count"},
	{"runcache.flight_followers", "count"},
	{"sweepd.submit_ms", "ms"}, {"sweepd.table_ms", "ms"}, {"sweepd.overhead_ms_per_cell", "ms"},
	{"sweep.pool_steals", "count"},
	{"trace.wall_s", "s"}, {"trace.untraced_wall_s", "s"}, {"trace.overhead_pct", "%"},
	{"profile.named_share", "ratio"}, {"profile.unattributed_share", "ratio"},
}

// namedLayers are the layers the per-layer table names; their buckets must
// cover at least 90% of the profile's CPU time.
var namedLayers = []string{
	"cpu", "sim", "workload", "node", "cache", "coherence", "network", "core",
	"storebuffer", "runtime", "staticfence", "fencesearch", "litmus",
	"runcache", "sweepd", "sweep",
}

// traced is the state of one traced run: spans, the CPU profile and the
// GC counters over the traced region.
type traced struct {
	*tracer
	prof    bytes.Buffer
	gcStart runtime.MemStats
	gcEnd   runtime.MemStats
	samples []profSample
}

func startTrace() (*traced, error) {
	tr := &traced{tracer: newTracer()}
	runtime.ReadMemStats(&tr.gcStart)
	if err := pprof.StartCPUProfile(&tr.prof); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return tr, nil
}

// stop ends profiling and decodes the profile.
func (tr *traced) stop() error {
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&tr.gcEnd)
	var err error
	tr.samples, err = parseProfile(tr.prof.Bytes())
	return err
}

// finish sets the metrics every traced run derives the same way — layer
// self times, GC counters, profile coverage and tracing overhead, each per
// traced pass — zero-fills the rest of perLayer, logs the layer table and
// writes the spans.
func (tr *traced) finish(rep *report, p params, workload string, passes int, tracedWall, untracedWall time.Duration) error {
	per := 1 / float64(passes)
	times := layerTimes(tr.samples, nil)
	var total, named float64
	for _, t := range times {
		total += t
	}
	for _, l := range namedLayers {
		named += times[l]
	}
	for _, m := range perLayer {
		if l, ok := strings.CutSuffix(m.name, ".self_s"); ok {
			rep.set(m.name, times[l]*per, m.unit)
		}
	}
	if total > 0 {
		rep.set("profile.named_share", named/total, "ratio")
		rep.set("profile.unattributed_share", times[unattributed]/total, "ratio")
	}
	rep.logf("profile: %d samples, %.2f s CPU; layers: %s", len(tr.samples), total, layerTable(times))
	if total > 0 && named/total < 0.9 {
		rep.logf("profile: named layers cover only %.1f%% of CPU time; unattributed %.1f%%",
			100*named/total, 100*times[unattributed]/total)
	}
	rep.set("runtime.gc_cycles", float64(tr.gcEnd.NumGC-tr.gcStart.NumGC)*per, "count")
	rep.set("runtime.gc_pause_ms", float64(tr.gcEnd.PauseTotalNs-tr.gcStart.PauseTotalNs)/1e6*per, "ms")
	rep.set("trace.wall_s", tracedWall.Seconds()*per, "s")
	rep.set("trace.untraced_wall_s", untracedWall.Seconds(), "s")
	overhead := 100 * (tracedWall.Seconds()*per/untracedWall.Seconds() - 1)
	rep.set("trace.overhead_pct", overhead, "%")
	rep.logf("tracing overhead: traced %.3f s per pass vs untraced wall_s %.3f s (%+.1f%%)",
		tracedWall.Seconds()*per, untracedWall.Seconds(), overhead)
	for _, m := range perLayer {
		if _, ok := rep.metrics[m.name]; !ok {
			rep.set(m.name, 0, m.unit)
		}
	}
	return tr.write(filepath.Join(p.work, "traces", fmt.Sprintf("%s-seed%d.json", workload, p.seed)))
}
