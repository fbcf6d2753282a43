package sweepd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"invisifence"
	"invisifence/internal/faultinject"
	"invisifence/internal/runcache"
	"invisifence/internal/stats"
	"invisifence/internal/sweep"
)

// SubmitResponse acknowledges an admitted campaign (202).
type SubmitResponse struct {
	ID string `json:"id"`
	// Cells is the expanded, deduplicated cell count.
	Cells int `json:"cells"`
	// Location is the campaign's status URL.
	Location string `json:"location"`
}

// CellCounts classifies a campaign's cells by state. Queued and Running
// are gauges; the terminal counters are final. Exactly one terminal
// state per cell, so Cached+Simulated+Deduped+Failed+Aborted == Total
// once the campaign finishes.
type CellCounts struct {
	Total     int `json:"total"`
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Cached    int `json:"cached"`
	Simulated int `json:"simulated"`
	Deduped   int `json:"deduped"`
	Failed    int `json:"failed"`
	Aborted   int `json:"aborted"`
}

// CellFailure identifies one failed cell.
type CellFailure struct {
	Cell     int    `json:"cell"`
	Workload string `json:"workload"`
	Variant  string `json:"variant"`
	Seed     int64  `json:"seed"`
	Error    string `json:"error"`
}

// StatusResponse is one campaign's wire status.
type StatusResponse struct {
	ID string `json:"id"`
	// State is "running" until every cell is terminal, then "done"
	// (all cells carry results), "failed" (>= 1 failed cell), or
	// "aborted" (>= 1 cell abandoned by shutdown).
	State string     `json:"state"`
	Cells CellCounts `json:"cells"`
	// Retries counts cell attempts beyond the first across the campaign;
	// Resumed marks a campaign re-admitted from its journal after a
	// restart.
	Retries  int           `json:"retries,omitempty"`
	Resumed  bool          `json:"resumed,omitempty"`
	Failures []CellFailure `json:"failures,omitempty"`
}

// Event is one NDJSON progress line: a cell state change (Cell >= 0) or
// the campaign's terminal announcement (Cell == -1). Seq is dense from 0
// per campaign and Done counts terminal cells at emission time, so a
// replayed stream reconstructs progress exactly.
type Event struct {
	Seq   int    `json:"seq"`
	Cell  int    `json:"cell"`
	State string `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// ErrorResponse is the body of every non-2xx JSON reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// StatszResponse is the /statsz telemetry snapshot. Cache carries the
// quarantine/degraded counters, Pool the steal/drop counters, Server the
// retry/timeout/recovery counters, and Faults the fired-fault counters
// of an armed injection plan (all zero in production).
type StatszResponse struct {
	Server    stats.ServerStats    `json:"server"`
	Cache     runcache.Stats       `json:"cache"`
	Flight    runcache.FlightStats `json:"flight"`
	Pool      sweep.PoolStats      `json:"pool"`
	Faults    faultinject.Stats    `json:"faults"`
	InFlight  []string             `json:"in_flight,omitempty"`
	Workers   int                  `json:"workers"`
	Draining  bool                 `json:"draining"`
	Replaying bool                 `json:"replaying"`
}

// maxSpecBytes bounds a POST /sweeps body.
const maxSpecBytes = 1 << 20

// maxNodes bounds any single cell's node count (and the machine
// override's dimensions): far beyond anything the simulator is useful
// for, and small enough that torus factorization is trivially cheap.
const maxNodes = 4096

// DecodeSpec strictly parses and validates a SweepSpec: unknown fields,
// trailing data, negative scale, unknown workloads, node counts beyond
// maxNodes, and grids larger than maxCells are rejected, and axis-level
// errors (unknown variants, negative depths, bad node counts) surface
// from the expansion. On success it returns the spec alongside its
// expanded, deduplicated jobs — an accepted spec always re-encodes
// canonically (json.Marshal(spec) round-trips to an identical spec).
func DecodeSpec(data []byte, maxCells int) (invisifence.SweepSpec, []invisifence.Config, error) {
	var spec invisifence.SweepSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return invisifence.SweepSpec{}, nil, fmt.Errorf("parsing spec: %w", err)
	}
	if dec.More() {
		return invisifence.SweepSpec{}, nil, fmt.Errorf("parsing spec: trailing data after JSON object")
	}
	if spec.Scale < 0 {
		return invisifence.SweepSpec{}, nil, fmt.Errorf("invalid spec: negative scale %v", spec.Scale)
	}
	known := make(map[string]bool)
	for _, w := range invisifence.Workloads() {
		known[w] = true
	}
	for _, w := range spec.Workloads {
		if !known[w] {
			return invisifence.SweepSpec{}, nil, fmt.Errorf("invalid spec: unknown workload %q", w)
		}
	}
	for _, n := range spec.Nodes {
		if n > maxNodes {
			return invisifence.SweepSpec{}, nil, fmt.Errorf("invalid spec: node count %d exceeds the limit of %d", n, maxNodes)
		}
	}
	if m := spec.Machine; m != nil {
		if m.Width < 0 || m.Height < 0 || m.Width > maxNodes || m.Height > maxNodes || m.Width*m.Height > maxNodes {
			return invisifence.SweepSpec{}, nil, fmt.Errorf("invalid spec: machine dimensions %dx%d exceed the limit of %d nodes", m.Width, m.Height, maxNodes)
		}
	}
	if maxCells > 0 {
		// The grid size is the product of axis lengths (empty axes default
		// to one value; empty workloads to all of them). Checking after
		// every factor refuses a hostile 10^12-cell grid before expansion
		// allocates anything, and before the product can overflow.
		cells := len(spec.Workloads)
		if cells == 0 {
			cells = len(invisifence.Workloads())
		}
		for _, n := range []int{
			len(spec.Variants), len(spec.SBDepths), len(spec.Checkpoints),
			len(spec.Nodes), len(spec.LinkBandwidths), len(spec.Seeds),
		} {
			if n > 1 {
				cells *= n
			}
			if cells > maxCells {
				return invisifence.SweepSpec{}, nil, fmt.Errorf("invalid spec: grid size %d exceeds the per-sweep limit of %d cells", cells, maxCells)
			}
		}
	}
	jobs, err := spec.Jobs()
	if err != nil {
		return invisifence.SweepSpec{}, nil, fmt.Errorf("invalid spec: %w", err)
	}
	return spec, jobs, nil
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sweeps", s.handleSubmit)
	mux.HandleFunc("GET /sweeps", s.handleList)
	mux.HandleFunc("GET /sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /sweeps/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /sweeps/{id}/table", s.handleTable)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		s.count(func(t *stats.ServerStats) { t.SpecsRejected++ })
		writeError(w, http.StatusBadRequest, "reading spec: %v", err)
		return
	}
	spec, jobs, err := DecodeSpec(body, s.opts.MaxCells)
	if err != nil {
		s.count(func(t *stats.ServerStats) { t.SpecsRejected++ })
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c, err := s.Submit(spec, jobs)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID: c.ID(), Cells: len(jobs), Location: "/sweeps/" + c.ID(),
	})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	campaigns := s.Campaigns()
	out := make([]StatusResponse, len(campaigns))
	for i, c := range campaigns {
		out[i] = c.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

// lookup resolves the {id} path value, writing the 404 itself on a miss.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Campaign, bool) {
	id := r.PathValue("id")
	c, ok := s.Campaign(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", id)
	}
	return c, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if c, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, c.Status())
	}
}

// handleEvents streams the campaign's event log as NDJSON: a full replay
// from seq 0, then a live tail until the campaign reaches a terminal
// state or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	ctx := r.Context()
	// WaitEvent blocks on a condition variable; wake it when the client
	// goes away so the handler can return.
	stop := ctx.Done()
	go func() {
		<-stop
		c.Interrupt()
	}()
	enc := json.NewEncoder(w)
	for seq := 0; ; seq++ {
		e, ok := c.WaitEvent(seq, func() bool { return ctx.Err() != nil })
		if !ok {
			return
		}
		if err := enc.Encode(e); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleTable renders the finished campaign's result table exactly as
// `cmd/sweep` prints it offline — byte-identical output is the server's
// determinism contract, enforced by the integration suite and the CI
// smoke job. ?markdown=1 selects the markdown rendering.
func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(w, r)
	if !ok {
		return
	}
	out, err := c.Outcome()
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	t := out.Table()
	// cmd/sweep emits the table via Println: rendering plus one final
	// newline. Reproduce that exactly.
	if r.URL.Query().Get("markdown") != "" {
		fmt.Fprintln(w, t.Markdown())
	} else {
		fmt.Fprintln(w, t.String())
	}
}

// handleHealth is pure liveness: the process answers, so it is alive.
// Readiness (draining, journal replay) lives on /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReady reports whether the server should receive traffic: 503
// while journal replay is in progress (resumed campaigns are still
// being re-admitted) or while draining (new specs would be refused).
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.Draining():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case s.Replaying():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "replaying")
	default:
		fmt.Fprintln(w, "ready")
	}
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, StatszResponse{
		Server:    s.Stats(),
		Cache:     s.cache.Stats(),
		Flight:    s.cache.FlightStats(),
		Pool:      s.pool.Stats(),
		Faults:    s.inj.Stats(),
		InFlight:  s.cache.InFlight(),
		Workers:   s.pool.Workers(),
		Draining:  s.Draining(),
		Replaying: s.Replaying(),
	})
}
