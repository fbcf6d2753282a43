// Package sweepd is the campaign server: a long-running HTTP/JSON service
// that accepts SweepSpecs, expands them into cells, schedules the cells
// across a work-stealing worker pool, and answers every cell through
// runcache.Resolve: an identical cell already in flight (single-flight
// dedupe), else the persistent content-addressed result cache, else a
// fresh simulation whose result is published back into the cache. Campaigns
// stream per-cell progress as NDJSON events and render their finished
// result table byte-identically to an offline cmd/sweep run of the same
// spec: the server boundary adds sharing, never nondeterminism.
//
// The API (DESIGN.md §13):
//
//	POST /sweeps              submit a SweepSpec; 202 + {id}, 400 on a bad
//	                          spec, 503 while draining
//	GET  /sweeps              list campaign statuses
//	GET  /sweeps/{id}         one campaign's status and cell counters
//	GET  /sweeps/{id}/events  NDJSON event stream (replay + live tail)
//	GET  /sweeps/{id}/table   the finished result table (text; ?markdown=1)
//	GET  /healthz             liveness ("ok" while the process serves)
//	GET  /readyz              readiness (503 while replaying or draining)
//	GET  /statsz              server/cache/flight/pool/fault telemetry
//
// The server is crash-safe (DESIGN.md §14): every campaign writes an
// append-only journal under the cache dir, and a restarted sweepd
// replays the journals, re-admits unfinished campaigns, and resumes
// them — finished cells answer from the cache, so only the cells in
// flight at the kill are re-simulated, and the resumed table is
// byte-identical to an uninterrupted run. Cells run under a watchdog
// deadline and are retried with capped exponential backoff before the
// cell (never the campaign) is marked failed.
//
// Shutdown is graceful and bounded: Shutdown marks the server draining
// (new specs get 503), lets in-flight cells finish and persist, marks
// still-queued cells aborted, and returns once every campaign is
// terminal; ShutdownTimeout bounds the wait, and unfinished campaigns
// keep their journals for the next startup.
package sweepd

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"invisifence"
	"invisifence/internal/faultinject"
	"invisifence/internal/runcache"
	"invisifence/internal/stats"
	"invisifence/internal/sweep"
)

// Options configures a Server.
type Options struct {
	// Workers bounds concurrent simulations across all campaigns
	// (values < 1 mean 4).
	Workers int
	// CacheDir roots the persistent result cache shared with cmd/sweep
	// and Campaign, and the campaign journals under CacheDir/journal; ""
	// keeps results in memory only (they die with the process, and
	// campaigns are not journaled).
	CacheDir string
	// MaxCells caps one spec's expanded grid size (values < 1 mean
	// 100000): the admission guard against accidental or hostile
	// combinatorial explosions.
	MaxCells int
	// MaxCellRetries is how many times a timed-out or failed cell is
	// re-attempted before the cell is marked failed (0 means 2; negative
	// means no retries).
	MaxCellRetries int
	// RetryBackoff is the base of the capped exponential backoff between
	// attempts: attempt k sleeps min(RetryBackoff<<(k-1), 8*RetryBackoff)
	// (0 means 250ms; negative means no backoff).
	RetryBackoff time.Duration
	// CellTimeout is the per-attempt wall-clock watchdog deadline
	// (0 derives a budget from the spec's scale; negative disables the
	// watchdog).
	CellTimeout time.Duration
	// CellMaxCycles is a simulated-cycle backstop threaded into every
	// cell run (0 keeps the runner's default). It bounds the simulation
	// without entering the Config, so cache keys are unchanged.
	CellMaxCycles uint64
	// Clock supplies time to retries, watchdogs, and the drain bound
	// (nil means the wall clock). Chaos tests inject a manual clock.
	Clock Clock
	// Faults arms the fault-injection plan across the server's seams —
	// cache I/O, flight leaders, pool workers, the cell-simulate hook
	// (nil, the production state, compiles to a no-op).
	Faults *faultinject.Plan
	// Run executes one cell (nil means invisifence.RunBounded with
	// CellMaxCycles). Tests inject counting, gated, or panicking
	// implementations here.
	Run func(invisifence.Config) (invisifence.Result, error)
}

// Defaults for the zero Options.
const (
	defaultCellRetries  = 2
	defaultRetryBackoff = 250 * time.Millisecond
	// defaultScaleBudget is the per-attempt watchdog budget for a
	// scale-1.0 cell; larger scales get proportionally more.
	defaultScaleBudget = 2 * time.Minute
	// backoffCap bounds the exponential backoff at 8 base units.
	backoffCap = 8
)

// SiteCell is the fault-injection site probed inside every cell
// execution (error = transient cell failure, panic = poisoned cell,
// delay = slow cell, exercising the watchdog).
const SiteCell = "sweepd.cell"

// Server is the campaign scheduler and store behind the HTTP API. Create
// with New, recover journaled campaigns with Recover, serve via Handler,
// stop with Shutdown or ShutdownTimeout.
type Server struct {
	opts       Options
	cache      *runcache.Cache
	pool       *sweep.Pool
	inj        *faultinject.Injector
	clock      Clock
	journalDir string // "" = journaling disabled

	mu        sync.Mutex
	campaigns map[string]*Campaign
	order     []string // campaign IDs in admission order
	seq       int

	draining  atomic.Bool
	replaying atomic.Bool
	shutdown  sync.Once
	drained   chan struct{}

	tmu   sync.Mutex
	telem stats.ServerStats
}

// New starts a server: the worker pool is live immediately, the cache
// and journal directories are created if needed, and any journals left
// by a previous process flip the server unready until Recover runs.
func New(opts Options) (*Server, error) {
	if opts.Workers < 1 {
		opts.Workers = 4
	}
	if opts.MaxCells < 1 {
		opts.MaxCells = 100_000
	}
	if opts.MaxCellRetries == 0 {
		opts.MaxCellRetries = defaultCellRetries
	}
	if opts.RetryBackoff == 0 {
		opts.RetryBackoff = defaultRetryBackoff
	}
	if opts.Clock == nil {
		opts.Clock = realClock{}
	}
	if opts.Run == nil {
		bound := opts.CellMaxCycles
		opts.Run = func(cfg invisifence.Config) (invisifence.Result, error) {
			return invisifence.RunBounded(cfg, bound)
		}
	}
	cache, err := runcache.Open(opts.CacheDir)
	if err != nil {
		return nil, fmt.Errorf("sweepd: %w", err)
	}
	s := &Server{
		opts:      opts,
		cache:     cache,
		pool:      sweep.NewPool(opts.Workers),
		clock:     opts.Clock,
		campaigns: make(map[string]*Campaign),
		drained:   make(chan struct{}),
	}
	s.inj = faultinject.New(opts.Faults)
	s.cache.SetInjector(s.inj)
	s.pool.SetInjector(s.inj)
	if opts.CacheDir != "" {
		s.journalDir = filepath.Join(opts.CacheDir, "journal")
		if err := os.MkdirAll(s.journalDir, 0o755); err != nil {
			return nil, fmt.Errorf("sweepd: %w", err)
		}
		wals, err := scanJournals(s.journalDir)
		if err != nil {
			return nil, fmt.Errorf("sweepd: %w", err)
		}
		// Continue the ID sequence past every journaled campaign so a
		// resumed campaign and a fresh submission can never collide.
		for _, w := range wals {
			var n int
			if _, err := fmt.Sscanf(filepath.Base(w), "c%04d.wal", &n); err == nil && n > s.seq {
				s.seq = n
			}
		}
		if len(wals) > 0 {
			s.replaying.Store(true)
		}
	}
	return s, nil
}

// Recover replays the journals a previous process left behind,
// re-admitting and resuming every unfinished campaign: all its cells are
// resubmitted, finished cells answer from the cache, and only the cells
// in flight at the crash re-simulate. Journals of campaigns that had
// already reached a terminal state are removed; unreadable or spec-less
// journals are set aside as .bad files and counted. Recover clears the
// /readyz "replaying" state and is what cmd/sweepd calls (concurrently
// with serving) right after New.
func (s *Server) Recover() error {
	defer s.replaying.Store(false)
	if s.journalDir == "" {
		return nil
	}
	wals, err := scanJournals(s.journalDir)
	if err != nil {
		return fmt.Errorf("sweepd: %w", err)
	}
	var firstErr error
	for _, w := range wals {
		if err := s.recoverJournal(w); err != nil {
			s.count(func(t *stats.ServerStats) { t.JournalErrors++ })
			// A bad journal must not satisfy the next startup either:
			// set it aside for post-mortems and keep recovering.
			os.Rename(w, w+".bad")
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// recoverJournal resumes one campaign WAL.
func (s *Server) recoverJournal(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("sweepd: reading journal: %w", err)
	}
	st := replayJournal(data)
	if st.terminal != "" {
		// The campaign finished; the crash hit between the done record
		// and the unlink. Finish the unlink.
		os.Remove(path)
		return nil
	}
	if st.spec == nil {
		return fmt.Errorf("sweepd: journal %s holds no usable spec record", filepath.Base(path))
	}
	if id := journalPath(s.journalDir, st.id); id != path {
		return fmt.Errorf("sweepd: journal %s claims campaign %q", filepath.Base(path), st.id)
	}
	jobs, err := st.spec.Jobs()
	if err != nil {
		return fmt.Errorf("sweepd: re-expanding journaled spec: %w", err)
	}
	if len(jobs) > s.opts.MaxCells {
		return fmt.Errorf("sweepd: journaled campaign %s has %d cells, over the limit of %d", st.id, len(jobs), s.opts.MaxCells)
	}
	jl, err := openJournal(s.journalDir, st.id)
	if err != nil {
		return err
	}
	c := newCampaign(st.id, *st.spec, jobs)
	c.jl = jl
	c.resumed = true
	s.mu.Lock()
	if _, dup := s.campaigns[c.id]; dup {
		s.mu.Unlock()
		jl.close()
		return fmt.Errorf("sweepd: duplicate journaled campaign %s", c.id)
	}
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	s.mu.Unlock()
	s.count(func(t *stats.ServerStats) {
		t.CampaignsRecovered++
		t.CellsScheduled += uint64(len(jobs))
	})
	for i := range jobs {
		s.pool.Submit(func() { s.runCell(c, i) })
	}
	c.checkDone()
	return nil
}

// Submit admits a validated spec as a new campaign, journals it, and
// schedules its cells. It returns errDraining once Shutdown has begun.
func (s *Server) Submit(spec invisifence.SweepSpec, jobs []invisifence.Config) (*Campaign, error) {
	if s.draining.Load() {
		s.count(func(t *stats.ServerStats) { t.SpecsRefused++ })
		return nil, errDraining
	}
	s.mu.Lock()
	s.seq++
	c := newCampaign(fmt.Sprintf("c%04d", s.seq), spec, jobs)
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	s.mu.Unlock()
	// Journal the admission before any cell can run: the WAL's spec
	// record is what a recovery resumes from. A journal that cannot be
	// opened costs crash-safety for this campaign, not the campaign.
	if jl, err := openJournal(s.journalDir, c.id); err == nil {
		c.jl = jl
		jl.record(journalRecord{T: recSpec, ID: c.id, Spec: &c.spec})
	} else {
		s.count(func(t *stats.ServerStats) { t.JournalErrors++ })
	}
	s.count(func(t *stats.ServerStats) {
		t.CampaignsAccepted++
		t.CellsScheduled += uint64(len(jobs))
	})
	for i := range jobs {
		s.pool.Submit(func() { s.runCell(c, i) })
	}
	// A zero-cell campaign (impossible via DecodeSpec, possible via the
	// API) is terminal at birth.
	c.checkDone()
	return c, nil
}

// errDraining is Submit's refusal during shutdown; the HTTP layer maps it
// to 503.
var errDraining = fmt.Errorf("sweepd: server is draining, not accepting new sweeps")

// Campaign returns the campaign with the given ID, if any.
func (s *Server) Campaign(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// Campaigns returns all campaigns in admission order.
func (s *Server) Campaigns() []*Campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Campaign, len(s.order))
	for i, id := range s.order {
		out[i] = s.campaigns[id]
	}
	return out
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Replaying reports whether journal replay is still owed (New found
// journals and Recover has not finished).
func (s *Server) Replaying() bool { return s.replaying.Load() }

// Shutdown drains the server: new specs are refused with 503, cells
// already being simulated run to completion and persist into the cache,
// and cells still queued are marked aborted. It returns once every
// campaign is terminal; the caller then closes the HTTP listener.
// Shutdown is idempotent and safe to call concurrently.
func (s *Server) Shutdown() {
	s.shutdown.Do(func() {
		s.draining.Store(true)
		// Close runs every queued task: tasks observe the draining flag
		// and short-circuit their cell to aborted, while tasks already
		// executing finish their simulation and publish it.
		s.pool.Close()
		// Unfinished campaigns keep their journals for the next startup;
		// release the file handles.
		for _, c := range s.Campaigns() {
			c.mu.Lock()
			jl := c.jl
			c.mu.Unlock()
			jl.close()
		}
		close(s.drained)
	})
}

// ShutdownTimeout drains like Shutdown but gives up after d (d <= 0
// waits forever). It reports whether the drain completed: on false, the
// server is still draining in the background — in-flight simulations
// keep running — but every campaign left unfinished has a journal, so
// an impatient exit costs at most re-simulating the cells in flight.
func (s *Server) ShutdownTimeout(d time.Duration) bool {
	go s.Shutdown()
	var after <-chan time.Time
	if d > 0 {
		after = s.clock.After(d)
	}
	select {
	case <-s.drained:
		return true
	case <-after:
		return false
	}
}

// Stats snapshots the scheduler telemetry.
func (s *Server) Stats() stats.ServerStats {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	return s.telem
}

func (s *Server) count(f func(*stats.ServerStats)) {
	s.tmu.Lock()
	f(&s.telem)
	s.tmu.Unlock()
}
