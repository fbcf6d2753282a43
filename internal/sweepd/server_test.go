package sweepd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"invisifence"
)

// tinyMachine mirrors the root test helper: a 2x2 torus with small
// caches so cells simulate in tens of milliseconds.
func tinyMachine() invisifence.MachineConfig {
	m := invisifence.DefaultMachine()
	m.Width, m.Height = 2, 2
	m.HopLatency = 10
	m.L1Bytes = 16 << 10
	m.L2Bytes = 256 << 10
	m.L2Latency = 12
	m.MemLatency = 60
	return m
}

func tinySpec() invisifence.SweepSpec {
	m := tinyMachine()
	return invisifence.SweepSpec{
		Workloads: []string{"barnes"},
		Variants:  []string{"sc", "invisi-sc"},
		Seeds:     []int64{1, 2},
		Scale:     0.2,
		Machine:   &m,
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postSpec submits a spec and returns the campaign ID.
func postSpec(t *testing.T, url string, spec invisifence.SweepSpec) string {
	t.Helper()
	resp, err := http.Post(url+"/sweeps", "application/json", bytes.NewReader(mustJSON(t, spec)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweeps: %s", resp.Status)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub.ID
}

// pollDone polls the campaign status until it leaves "running".
func pollDone(t *testing.T, url, id string) StatusResponse {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(url + "/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st StatusResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s still running: %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getTable(t *testing.T, url, id string) string {
	t.Helper()
	resp, err := http.Get(url + "/sweeps/" + id + "/table")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET table: %s: %s", resp.Status, b.String())
	}
	return b.String()
}

// TestServerEndToEndDeterminism is the tentpole acceptance test: a real
// corpus spec submitted to an in-process sweepd produces a result table
// byte-identical to an offline invisifence.Sweep (cmd/sweep's engine) of
// the same spec at a different worker count, and a second submission of
// the same spec simulates nothing.
func TestServerEndToEndDeterminism(t *testing.T) {
	srv, err := New(Options{Workers: 4, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := tinySpec()
	id := postSpec(t, ts.URL, spec)
	st := pollDone(t, ts.URL, id)
	if st.State != "done" {
		t.Fatalf("campaign state: %+v", st)
	}
	if st.Cells.Simulated != 4 || st.Cells.Cached != 0 {
		t.Fatalf("cold campaign counters: %+v", st.Cells)
	}
	serverTable := getTable(t, ts.URL, id)

	// Offline, serial, separate cache: the same spec through the
	// cmd/sweep engine. The server adds exactly one trailing newline
	// (Println), nothing else.
	offline, err := invisifence.Sweep(spec, invisifence.SweepOptions{Parallel: 1, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if want := offline.Table().String() + "\n"; serverTable != want {
		t.Fatalf("server table differs from offline sweep:\n--- server ---\n%s--- offline ---\n%s", serverTable, want)
	}

	// A second identical campaign: zero simulations, identical bytes.
	id2 := postSpec(t, ts.URL, spec)
	st2 := pollDone(t, ts.URL, id2)
	if st2.State != "done" || st2.Cells.Simulated != 0 || st2.Cells.Cached != 4 {
		t.Fatalf("warm campaign: %+v", st2)
	}
	if warm := getTable(t, ts.URL, id2); warm != serverTable {
		t.Fatal("warm campaign table differs from cold campaign table")
	}
}

// fakeResult derives a deterministic result from a config without
// simulating, for scheduler-level tests.
func fakeResult(cfg invisifence.Config) invisifence.Result {
	return invisifence.Result{
		Config:    cfg,
		Cycles:    uint64(10_000 + 137*cfg.Seed),
		Retired:   uint64(5_000 * (cfg.Seed + 1)),
		Validated: true,
	}
}

// TestServerWorkerCountDeterminism renders the same campaign at three
// pool widths: identical tables, regardless of scheduling.
func TestServerWorkerCountDeterminism(t *testing.T) {
	spec := tinySpec()
	spec.Seeds = []int64{1, 2, 3, 4, 5}
	var tables []string
	for _, workers := range []int{1, 2, 8} {
		srv, err := New(Options{Workers: workers, Run: func(cfg invisifence.Config) (invisifence.Result, error) {
			return fakeResult(cfg), nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		id := postSpec(t, ts.URL, spec)
		if st := pollDone(t, ts.URL, id); st.State != "done" {
			t.Fatalf("workers=%d: %+v", workers, st)
		}
		tables = append(tables, getTable(t, ts.URL, id))
		ts.Close()
		srv.Shutdown()
	}
	if tables[0] != tables[1] || tables[1] != tables[2] {
		t.Fatalf("tables differ across worker counts:\n%s\nvs\n%s\nvs\n%s", tables[0], tables[1], tables[2])
	}
}

// TestSingleFlightDedupe is the dedupe acceptance test: four identical
// campaigns racing against a cold cache perform exactly one simulation
// per unique cell; every other cell shares the in-flight computation.
func TestSingleFlightDedupe(t *testing.T) {
	const campaigns = 4
	spec := tinySpec()
	spec.Variants = []string{"sc"} // 2 unique cells (seeds 1, 2)
	const unique = 2
	const followers = campaigns*unique - unique

	var runs atomic.Int64
	var srv *Server
	srv, err := New(Options{
		// Enough workers that every campaign's cells are in flight
		// simultaneously: the leaders block below until all expected
		// followers have joined their flights. The Draining escape only
		// matters if the test fails before the gate opens.
		Workers: campaigns * unique,
		Run: func(cfg invisifence.Config) (invisifence.Result, error) {
			runs.Add(1)
			for srv.flight.Stats().Followers < followers && !srv.Draining() {
				runtime.Gosched()
			}
			return fakeResult(cfg), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := mustJSON(t, spec)
	type postReply struct {
		id  string
		err error
	}
	replies := make(chan postReply, campaigns)
	for i := 0; i < campaigns; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
			if err != nil {
				replies <- postReply{err: err}
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				replies <- postReply{err: fmt.Errorf("POST /sweeps: %s", resp.Status)}
				return
			}
			var sub SubmitResponse
			if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
				replies <- postReply{err: err}
				return
			}
			replies <- postReply{id: sub.ID}
		}()
	}
	var ids []string
	for i := 0; i < campaigns; i++ {
		r := <-replies
		if r.err != nil {
			t.Fatal(r.err)
		}
		ids = append(ids, r.id)
	}

	total := CellCounts{}
	for _, id := range ids {
		st := pollDone(t, ts.URL, id)
		if st.State != "done" {
			t.Fatalf("campaign %s: %+v", id, st)
		}
		total.Simulated += st.Cells.Simulated
		total.Deduped += st.Cells.Deduped
		total.Cached += st.Cells.Cached
	}
	if got := runs.Load(); got != unique {
		t.Fatalf("%d simulations for %d unique cells across %d identical campaigns", got, unique, campaigns)
	}
	if total.Simulated != unique {
		t.Fatalf("campaigns report %d simulated cells, want %d", total.Simulated, unique)
	}
	if total.Deduped != followers {
		t.Fatalf("campaigns report %d deduped cells, want %d", total.Deduped, followers)
	}
	// The runcache traffic stats agree: one Put per unique cell, and the
	// flight registry saw every follower.
	if s := srv.cache.Stats(); s.Puts != unique {
		t.Fatalf("cache stats: %+v (want %d puts)", s, unique)
	}
	if fs := srv.flight.Stats(); fs.Leaders != unique || fs.Followers != followers {
		t.Fatalf("flight stats: %+v", fs)
	}
	// All four tables render identically.
	want := getTable(t, ts.URL, ids[0])
	for _, id := range ids[1:] {
		if got := getTable(t, ts.URL, id); got != want {
			t.Fatalf("campaign %s table differs from %s", id, ids[0])
		}
	}
}

// gatedWriter is a journal writer that parks the first cell "start"
// record until released, holding that cell between its pre-flight cache
// check and its flight.
type gatedWriter struct {
	io.WriteCloser
	parked, release chan struct{}
	once            sync.Once
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(`"t":"start"`)) {
		w.once.Do(func() {
			close(w.parked)
			<-w.release
		})
	}
	return w.WriteCloser.Write(p)
}

// waitCampaign polls a campaign until it is terminal.
func waitCampaign(t *testing.T, c *Campaign) StatusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := c.Status()
		if st.State == "done" || st.State == "failed" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s never finished: %+v", st.ID, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightLeaderRechecksCache is the regression test for the
// double-simulation window: a cell misses the cache and, before it joins
// the flight registry, another campaign's flight for the same cell
// publishes and ends. The late cell then leads a new flight; it must find
// the published result instead of simulating the cell a second time.
func TestFlightLeaderRechecksCache(t *testing.T) {
	early := tinySpec() // cells sc/seed 1 and invisi-sc/seed 1
	early.Seeds = []int64{1}
	late := early // cell sc/seed 1 only
	late.Variants = []string{"sc"}
	const distinct = 2

	var runs atomic.Int64
	started := make(chan struct{}, 4)
	gates := map[string]chan struct{}{"sc": make(chan struct{}), "Invisi_sc": make(chan struct{})}
	srv, err := New(Options{
		Workers:     2,
		CacheDir:    t.TempDir(),
		CellTimeout: -1,
		Run: func(cfg invisifence.Config) (invisifence.Result, error) {
			runs.Add(1)
			started <- struct{}{}
			<-gates[cfg.Variant.Name]
			return fakeResult(cfg), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	submit := func(spec invisifence.SweepSpec) *Campaign {
		jobs, err := spec.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		c, err := srv.Submit(spec, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	a := submit(early)
	<-started // both workers are now inside one of a's cells
	<-started
	b := submit(late) // queued: no worker is free
	w := &gatedWriter{parked: make(chan struct{}), release: make(chan struct{})}
	b.jl.mu.Lock()
	w.WriteCloser, b.jl.f = b.jl.f, w
	b.jl.mu.Unlock()

	// Free one worker: it takes b's cell, misses the cache (a's sc cell
	// is still running), and parks on the cell's start record.
	close(gates["Invisi_sc"])
	<-w.parked
	// a's sc cell publishes and its flight ends; only then may b's cell
	// join the flight registry.
	close(gates["sc"])
	if st := waitCampaign(t, a); st.State != "done" {
		t.Fatalf("early campaign: %+v", st)
	}
	close(w.release)
	st := waitCampaign(t, b)
	if st.State != "done" || st.Cells.Cached != 1 {
		t.Fatalf("late campaign: %+v (want its cell counted as cached)", st)
	}
	if got := runs.Load(); got != distinct {
		t.Errorf("%d simulations for %d distinct cells", got, distinct)
	}
	if got := srv.Stats().CellsSimulated; got != distinct {
		t.Errorf("CellsSimulated = %d, want %d distinct cells", got, distinct)
	}
}

// TestSchedulerStealsSkewedCampaign drives the server's pool with a
// campaign whose costs are maximally skewed across the round-robin
// stripes and checks the work-stealing layer rebalanced it.
func TestSchedulerStealsSkewedCampaign(t *testing.T) {
	const workers = 4
	start := make(chan struct{})
	open := sync.OnceFunc(func() { close(start) })
	srv, err := New(Options{Workers: workers, Run: func(cfg invisifence.Config) (invisifence.Result, error) {
		<-start
		// Cells land on queues round-robin in seed order: seeds
		// 0,4,8,... stripe onto one queue and cost 25ms; the rest are
		// instant.
		if cfg.Seed%workers == 0 {
			time.Sleep(25 * time.Millisecond)
		}
		return fakeResult(cfg), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	defer open() // unblock workers before Shutdown drains them
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := tinySpec()
	spec.Variants = []string{"sc"}
	spec.Seeds = make([]int64, 4*workers)
	for i := range spec.Seeds {
		spec.Seeds[i] = int64(i)
	}
	id := postSpec(t, ts.URL, spec)
	open()
	begin := time.Now()
	st := pollDone(t, ts.URL, id)
	elapsed := time.Since(begin)
	if st.State != "done" || st.Cells.Simulated != 4*workers {
		t.Fatalf("campaign: %+v", st)
	}
	// Serialized behind one worker the slow stripe costs 4x25ms; stolen
	// across four it costs ~2 rounds. The margin distinguishes the
	// regimes without being CI-noise sensitive.
	if elapsed > 85*time.Millisecond {
		t.Fatalf("skewed campaign took %v: stealing not effective", elapsed)
	}
	if s := srv.pool.Stats(); s.Steals == 0 {
		t.Fatalf("no steals recorded: %+v", s)
	}
}

// TestEventStream tails a campaign's NDJSON stream and checks it replays
// into exactly the campaign's history: dense sequence numbers, one
// running and one terminal event per cell, and a final campaign-level
// event carrying Done == Total.
func TestEventStream(t *testing.T) {
	release := make(chan struct{})
	open := sync.OnceFunc(func() { close(release) })
	srv, err := New(Options{Workers: 2, Run: func(cfg invisifence.Config) (invisifence.Result, error) {
		<-release
		return fakeResult(cfg), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	defer open() // unblock workers before Shutdown drains them
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := tinySpec() // 4 cells
	id := postSpec(t, ts.URL, spec)

	resp, err := http.Get(ts.URL + "/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type: %q", ct)
	}
	open()

	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if len(events) != 2*4+1 {
		t.Fatalf("%d events for a 4-cell campaign (want 9): %+v", len(events), events)
	}
	perCell := make(map[int][]string)
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Total != 4 {
			t.Fatalf("event total: %+v", e)
		}
		perCell[e.Cell] = append(perCell[e.Cell], e.State)
	}
	for cell := 0; cell < 4; cell++ {
		h := perCell[cell]
		if len(h) != 2 || h[0] != "running" || h[1] != "simulated" {
			t.Fatalf("cell %d history: %v", cell, h)
		}
	}
	last := events[len(events)-1]
	if last.Cell != -1 || last.State != "campaign done" || last.Done != 4 {
		t.Fatalf("terminal event: %+v", last)
	}
}

// TestAPIRejections covers the structured error paths: malformed and
// invalid specs are 400s with a JSON error body, unknown campaigns 404,
// and premature table fetches 409.
func TestAPIRejections(t *testing.T) {
	release := make(chan struct{})
	srv, err := New(Options{Workers: 1, MaxCells: 64, Run: func(cfg invisifence.Config) (invisifence.Result, error) {
		<-release
		return fakeResult(cfg), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	defer close(release) // unblock the worker before Shutdown drains it
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) (int, ErrorResponse) {
		resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e
	}

	for _, tc := range []struct {
		name, body, wantErr string
	}{
		{"malformed JSON", `{"workloads": [`, "parsing spec"},
		{"unknown field", `{"wrkloads": ["barnes"]}`, "unknown field"},
		{"unknown workload", `{"workloads": ["nope"]}`, "unknown workload"},
		{"unknown variant", `{"variants": ["nope"]}`, "unknown variant"},
		{"negative scale", `{"scale": -1}`, "negative scale"},
		{"trailing data", `{} {}`, "trailing data"},
		{"grid too large", `{"seeds": [1,2,3,4,5,6,7,8,9,10]}`, "exceeds the per-sweep limit"},
		{"oversized nodes", `{"nodes": [100000]}`, "node count"},
	} {
		code, e := post(tc.body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, code)
		}
		if !strings.Contains(e.Error, tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, e.Error, tc.wantErr)
		}
	}
	if n := srv.Stats().SpecsRejected; n != 8 {
		t.Fatalf("SpecsRejected: %d", n)
	}

	if resp, _ := http.Get(ts.URL + "/sweeps/c9999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign: %s", resp.Status)
	}

	// A running campaign has no table yet: 409.
	spec := tinySpec()
	spec.Variants, spec.Seeds = []string{"sc"}, []int64{1}
	id := postSpec(t, ts.URL, spec)
	resp, err := http.Get(ts.URL + "/sweeps/" + id + "/table")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("table of running campaign: %s", resp.Status)
	}
}

// TestStatszAndHealthz sanity-checks the telemetry and health surfaces:
// /healthz is pure liveness ("ok" even while draining), /readyz flips to
// 503 once a drain begins.
func TestStatszAndHealthz(t *testing.T) {
	srv, err := New(Options{Workers: 2, Run: func(cfg invisifence.Config) (invisifence.Result, error) {
		return fakeResult(cfg), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if buf.String() != "ok\n" {
		t.Fatalf("healthz: %q", buf.String())
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || buf.String() != "ready\n" {
		t.Fatalf("readyz: %s %q", resp.Status, buf.String())
	}

	spec := tinySpec()
	id := postSpec(t, ts.URL, spec)
	pollDone(t, ts.URL, id)

	var sz StatszResponse
	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&sz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sz.Server.CampaignsAccepted != 1 || sz.Server.CellsSimulated != 4 || sz.Server.CampaignsCompleted != 1 {
		t.Fatalf("statsz server: %+v", sz.Server)
	}
	if sz.Workers != 2 || sz.Draining {
		t.Fatalf("statsz: %+v", sz)
	}
	if fmt.Sprint(sz.Server) == "" {
		t.Fatal("ServerStats.String empty")
	}

	srv.Shutdown()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if buf.String() != "ok\n" {
		t.Fatalf("healthz while draining: %q", buf.String())
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || buf.String() != "draining\n" {
		t.Fatalf("readyz while draining: %s %q", resp.Status, buf.String())
	}
}
