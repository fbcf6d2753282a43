package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"invisifence"
	"invisifence/internal/sweepd"
)

// campaign-mixed: an in-process sweepd campaign server (2 workers, disk
// cache in a scratch directory) behind a loopback HTTP server, driven by
// two closed-loop clients. Three campaigns in four are the warm base grid,
// 224 cached cells that runcache, single-flight and the worker pool
// answer; one in four is a fresh 1-node grid seeded from the benchmark
// seed and submitted by both clients (simulation, cache writes, the
// journal, single-flight dedupe). Each campaign is one operation, timed from submission to its
// result table. A timed pass is one round: each client runs
// campaignsPerRound campaigns.

const (
	campaignScale     = 0.05
	campaignClients   = 2
	campaignWorkers   = 2
	campaignsPerRound = 80
	// campaignSetups is how many times the server is set up; each
	// set-up loads the 224-cell base grid (over a second).
	campaignSetups = 5
)

// baseSpec is the warm grid set-up loads into the server's cache: 7
// workloads x 4 variants x {1, 4} nodes x 4 seeds = 224 cells.
func baseSpec(p params) invisifence.SweepSpec {
	spec := invisifence.SweepSpec{
		Variants: gridVariants,
		Nodes:    []int{1, 4},
		Seeds:    []int64{1, 2, 3, 4},
		Scale:    campaignScale,
	}
	if p.short {
		spec.Workloads = []string{"apache", "ocean"}
		spec.Seeds = []int64{1, 2}
	}
	return spec
}

// freshSpec is the k-th fresh campaign of a run: every base workload under
// conventional SC on one node, at a seed derived from the benchmark seed
// and k (never one of the base grid's).
func freshSpec(base invisifence.SweepSpec, benchSeed int64, k int) invisifence.SweepSpec {
	rng := rand.New(rand.NewSource(benchSeed*1_000_003 + int64(k)))
	return invisifence.SweepSpec{
		Workloads: base.Workloads,
		Variants:  []string{"sc"},
		Nodes:     []int{1},
		Seeds:     []int64{1000 + rng.Int63n(1<<40)},
		Scale:     campaignScale,
	}
}

// campaignEnv is one server under test and the counters its cell runner
// keeps.
type campaignEnv struct {
	dir    string
	srv    *sweepd.Server
	hs     *httptest.Server
	client *http.Client
	tr     *tracer // nil outside the traced region

	mu       sync.Mutex
	retired  uint64
	cells    int
	cellTime time.Duration
}

// run is the server's cell executor: invisifence.RunBounded, as sweepd
// runs by default, with the retired instructions and time of every
// simulated cell counted.
func (e *campaignEnv) run(cfg invisifence.Config) (invisifence.Result, error) {
	e.mu.Lock()
	tr := e.tr
	e.mu.Unlock()
	id := 0
	if tr != nil {
		id = tr.begin("sim.cell", cellName(cfg), 0)
	}
	start := time.Now()
	r, err := invisifence.RunBounded(cfg, 0)
	d := time.Since(start)
	if tr != nil {
		tr.end(id)
	}
	e.mu.Lock()
	e.retired += r.Retired
	e.cells++
	e.cellTime += d
	e.mu.Unlock()
	return r, err
}

func (e *campaignEnv) counters() (uint64, int, time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.retired, e.cells, e.cellTime
}

func (e *campaignEnv) setTracer(tr *tracer) {
	e.mu.Lock()
	e.tr = tr
	e.mu.Unlock()
}

// newCampaignEnv starts a server in a fresh scratch directory and loads
// the base grid through it.
func newCampaignEnv(p params, base invisifence.SweepSpec) (*campaignEnv, error) {
	dir, err := os.MkdirTemp(p.work, "campaign-")
	if err != nil {
		return nil, err
	}
	e := &campaignEnv{dir: dir}
	e.srv, err = sweepd.New(sweepd.Options{
		Workers:  campaignWorkers,
		CacheDir: filepath.Join(dir, "cache"),
		Run:      e.run,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.hs = httptest.NewServer(e.srv.Handler())
	e.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: campaignClients, MaxIdleConnsPerHost: campaignClients}}
	if _, err := e.campaign(base, "", nil); err != nil {
		e.close()
		return nil, fmt.Errorf("loading the base grid: %w", err)
	}
	return e, nil
}

func (e *campaignEnv) close() {
	e.client.CloseIdleConnections()
	e.hs.Close()
	e.srv.Shutdown()
	os.RemoveAll(e.dir)
}

// campaignResult is one finished campaign as a client saw it.
type campaignResult struct {
	spec    invisifence.SweepSpec
	fresh   bool
	done    bool // the table was served: every cell succeeded
	cells   int
	table   string
	latency time.Duration
}

// campaign submits spec, follows its event stream to the end and fetches
// its table. With a tracer, each request is a span of the campaign.
func (e *campaignEnv) campaign(spec invisifence.SweepSpec, op string, tr *tracer) (campaignResult, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return campaignResult{}, err
	}
	span := func(name string) func() {
		if tr == nil {
			return func() {}
		}
		id := tr.begin(name, op, 0)
		return func() { tr.end(id) }
	}
	start := time.Now()
	end := span("sweepd.submit")
	resp, err := e.client.Post(e.hs.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		end()
		return campaignResult{}, err
	}
	var sub sweepd.SubmitResponse
	err = decodeResponse(resp, http.StatusAccepted, &sub)
	end()
	if err != nil {
		return campaignResult{}, fmt.Errorf("submitting: %w", err)
	}
	end = span("sweepd.wait")
	resp, err = e.client.Get(e.hs.URL + "/sweeps/" + sub.ID + "/events")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	end()
	if err != nil {
		return campaignResult{}, fmt.Errorf("following %s: %w", sub.ID, err)
	}
	end = span("sweepd.table")
	resp, err = e.client.Get(e.hs.URL + "/sweeps/" + sub.ID + "/table")
	var table []byte
	if err == nil {
		table, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end()
	if err != nil {
		return campaignResult{}, fmt.Errorf("table of %s: %w", sub.ID, err)
	}
	// 409 is the server's answer for a campaign that finished with a
	// failed cell: a failed operation, not a failed benchmark.
	done := resp.StatusCode == http.StatusOK
	if !done && resp.StatusCode != http.StatusConflict {
		return campaignResult{}, fmt.Errorf("table of %s: status %d: %s", sub.ID, resp.StatusCode, table)
	}
	return campaignResult{spec: spec, done: done, cells: sub.Cells, table: string(table), latency: time.Since(start)}, nil
}

func decodeResponse(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	return json.Unmarshal(data, v)
}

func (e *campaignEnv) statsz() (sweepd.StatszResponse, error) {
	var st sweepd.StatszResponse
	resp, err := e.client.Get(e.hs.URL + "/statsz")
	if err != nil {
		return st, err
	}
	return st, decodeResponse(resp, http.StatusOK, &st)
}

// round runs one timed pass: each client submits campaignsPerRound
// campaigns back to back. Campaign k of a round is fresh when k%4 == 3;
// the clients meet before each fresh campaign and submit the same spec
// together, as two users starting the same new experiment: each fresh
// cell is simulated once and reaches the other campaign through
// single-flight or the cache.
func (e *campaignEnv) round(p params, base invisifence.SweepSpec, r int, tr *tracer) (pass, []campaignResult, error) {
	retired0, _, _ := e.counters()
	start := now()
	results := make([][]campaignResult, campaignClients)
	errs := make([]error, campaignClients)
	meet := make([]sync.WaitGroup, campaignsPerRound/4)
	for i := range meet {
		meet[i].Add(campaignClients)
	}
	var wg sync.WaitGroup
	for c := 0; c < campaignClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			met := 0
			// A client that stops early still releases its partner.
			defer func() {
				for ; met < len(meet); met++ {
					meet[met].Done()
				}
			}()
			for k := 0; k < campaignsPerRound; k++ {
				spec := base
				fresh := k%4 == 3
				if fresh {
					spec = freshSpec(base, p.seed, r*campaignsPerRound+k)
					meet[met].Done()
					meet[met].Wait()
					met++
				}
				res, err := e.campaign(spec, fmt.Sprintf("r%d/c%d/%d", r, c, k), tr)
				if err != nil {
					errs[c] = err
					return
				}
				res.fresh = fresh
				results[c] = append(results[c], res)
			}
		}(c)
	}
	wg.Wait()
	ps := since(start)
	for _, err := range errs {
		if err != nil {
			return ps, nil, err
		}
	}
	retired1, _, _ := e.counters()
	ps.simulated = retired1 - retired0
	var all []campaignResult
	for _, rs := range results {
		all = append(all, rs...)
	}
	return ps, all, nil
}

// verifyCampaigns counts one operation per campaign: it must have reached
// done, and its table must be byte-identical to an offline
// invisifence.Sweep of the same spec. The
// offline sweeps share a cache of their own, filled by an offline sweep of
// the base grid, so they never read anything the server computed.
func verifyCampaigns(rep *report, p params, base invisifence.SweepSpec, results []campaignResult) error {
	dir, err := os.MkdirTemp(p.work, "verify-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := invisifence.SweepOptions{Parallel: campaignWorkers, CacheDir: dir}
	if _, err := invisifence.Sweep(base, opts); err != nil {
		return err
	}
	want := map[string]string{}
	for _, r := range results {
		key, err := json.Marshal(r.spec)
		if err != nil {
			return err
		}
		w, ok := want[string(key)]
		if !ok {
			out, err := invisifence.Sweep(r.spec, opts)
			if err != nil {
				return err
			}
			w = out.Table().String() + "\n"
			want[string(key)] = w
		}
		rep.op(r.done && r.table == w, "campaign over %s: done=%v, table differs from the offline sweep", key, r.done)
	}
	return nil
}

// checkStatsz counts one operation: across the run, the server simulated
// every cell of the base grid and of each distinct fresh spec exactly
// once, failed none, and saw no cache errors.
func checkStatsz(rep *report, e *campaignEnv, base invisifence.SweepSpec, results []campaignResult) error {
	st, err := e.statsz()
	if err != nil {
		return err
	}
	baseJobs, err := base.Jobs()
	if err != nil {
		return err
	}
	want := uint64(len(baseJobs))
	seen := map[int64]bool{}
	for _, r := range results {
		if r.fresh && !seen[r.spec.Seeds[0]] {
			seen[r.spec.Seeds[0]] = true
			want += uint64(r.cells)
		}
	}
	s := st.Server
	rep.op(s.CellsSimulated == want && s.CellsFailed == 0 && st.Cache.Errors == 0,
		"statsz: %d cells simulated (want %d), %d failed, %d cache errors",
		s.CellsSimulated, want, s.CellsFailed, st.Cache.Errors)
	rep.logf("statsz: %d campaigns, cells %d simulated / %d cached / %d deduped; cache %d hits %d misses %d puts; flight %d leaders %d followers; pool %d steals",
		s.CampaignsCompleted, s.CellsSimulated, s.CellsCached, s.CellsDeduped,
		st.Cache.Hits, st.Cache.Misses, st.Cache.Puts, st.Flight.Leaders, st.Flight.Followers, st.Pool.Steals)
	return nil
}

func runCampaignMixed(p params, rep *report) error {
	// Two workers and two clients: two Ps whatever the host's size.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(campaignWorkers))
	base := baseSpec(p)
	env, setups, err := repeatSetup(campaignSetups, func() (*campaignEnv, error) { return newCampaignEnv(p, base) },
		func(e *campaignEnv) { e.close() })
	if err != nil {
		return err
	}
	defer env.close()
	if p.trace {
		return traceCampaigns(p, rep, env, base)
	}
	var (
		results []campaignResult
		lat     []time.Duration
	)
	passes, err := timed(p.seconds, func(r int) (pass, error) {
		ps, rs, err := env.round(p, base, r, nil)
		for _, c := range rs {
			lat = append(lat, c.latency)
		}
		results = append(results, rs...)
		return ps, err
	})
	if err != nil {
		return err
	}
	if err := checkStatsz(rep, env, base, results); err != nil {
		return err
	}
	if err := verifyCampaigns(rep, p, base, results); err != nil {
		return err
	}
	rep.endToEnd(setups, passes, lat)
	return nil
}

// refRounds is how many untraced rounds give the traced run its
// overhead baseline (their median wall time).
const refRounds = 3

// traceCampaigns runs untraced rounds for the overhead baseline, then
// traced rounds with a span around every request and every simulated
// cell, and reports the server's telemetry over the traced rounds.
func traceCampaigns(p params, rep *report, env *campaignEnv, base invisifence.SweepSpec) error {
	var (
		results []campaignResult
		walls   []float64
	)
	for r := 0; r < refRounds; r++ {
		ps, rs, err := env.round(p, base, r, nil)
		if err != nil {
			return err
		}
		results = append(results, rs...)
		walls = append(walls, ps.wall.Seconds())
	}
	st0, err := env.statsz()
	if err != nil {
		return err
	}
	_, cells0, cellTime0 := env.counters()
	tr, err := startTrace()
	if err != nil {
		return err
	}
	env.setTracer(tr.tracer)
	begin := time.Now()
	var traced []campaignResult
	passes, err := timed(p.seconds, func(r int) (pass, error) {
		ps, rs, err := env.round(p, base, refRounds+r, tr.tracer)
		traced = append(traced, rs...)
		return ps, err
	})
	wall := time.Since(begin)
	env.setTracer(nil)
	if err := tr.stop(); err != nil {
		return err
	}
	if err != nil {
		return err
	}
	st1, err := env.statsz()
	if err != nil {
		return err
	}
	n := float64(len(passes))
	rep.set("runcache.hits", float64(st1.Cache.Hits-st0.Cache.Hits)/n, "count")
	rep.set("runcache.misses", float64(st1.Cache.Misses-st0.Cache.Misses)/n, "count")
	rep.set("runcache.puts", float64(st1.Cache.Puts-st0.Cache.Puts)/n, "count")
	rep.set("runcache.errors", float64(st1.Cache.Errors-st0.Cache.Errors)/n, "count")
	rep.set("runcache.flight_leaders", float64(st1.Flight.Leaders-st0.Flight.Leaders)/n, "count")
	rep.set("runcache.flight_followers", float64(st1.Flight.Followers-st0.Flight.Followers)/n, "count")
	rep.set("sweep.pool_steals", float64(st1.Pool.Steals-st0.Pool.Steals)/n, "count")
	rep.set("sweepd.submit_ms", tr.meanMillis("sweepd.submit"), "ms")
	rep.set("sweepd.table_ms", tr.meanMillis("sweepd.table"), "ms")
	rep.set("sim.cell_ms", tr.meanMillis("sim.cell"), "ms")
	_, cells1, cellTime1 := env.counters()
	var campaignTime time.Duration
	campaignCells := 0
	for _, c := range traced {
		campaignTime += c.latency
		campaignCells += c.cells
	}
	if campaignCells > 0 {
		rep.set("sweepd.overhead_ms_per_cell",
			float64(campaignTime-(cellTime1-cellTime0))/float64(campaignCells)/float64(time.Millisecond), "ms")
	}
	rep.logf("traced rounds: %d campaigns, %d cells simulated", len(traced), cells1-cells0)
	results = append(results, traced...)
	if err := checkStatsz(rep, env, base, results); err != nil {
		return err
	}
	if err := verifyCampaigns(rep, p, base, results); err != nil {
		return err
	}
	ref := time.Duration(median(walls) * float64(time.Second))
	return tr.finish(rep, p, "campaign-mixed", len(passes), wall, ref)
}
