package sweepd

import (
	"fmt"
	"sync"

	"invisifence"
)

// cellState is one cell's position in its lifecycle. Exactly one
// terminal state is reached per cell.
type cellState uint8

const (
	cellQueued cellState = iota
	cellRunning
	// Terminal states.
	cellCached    // answered by the persistent cache
	cellSimulated // simulated by this campaign's cell (flight leader)
	cellDeduped   // shared another in-flight cell's simulation (flight follower)
	cellFailed    // simulation errored or panicked
	cellAborted   // abandoned in the queue by a graceful shutdown
)

// String implements fmt.Stringer; the names double as wire states.
func (s cellState) String() string {
	switch s {
	case cellQueued:
		return "queued"
	case cellRunning:
		return "running"
	case cellCached:
		return "cached"
	case cellSimulated:
		return "simulated"
	case cellDeduped:
		return "deduped"
	case cellFailed:
		return "failed"
	case cellAborted:
		return "aborted"
	}
	return "invalid"
}

func (s cellState) terminal() bool { return s >= cellCached }

// Campaign is one admitted spec: its expanded cells, their states and
// results, and the event log that clients tail. All mutation goes
// through transition, which appends exactly one event per state change,
// so an event-stream replay reconstructs the cell counters exactly.
type Campaign struct {
	id   string
	spec invisifence.SweepSpec
	jobs []invisifence.Config
	keys []string

	// jl is the campaign's durable journal (nil when journaling is
	// disabled); resumed marks a campaign re-admitted from a journal by
	// Recover. Both are set before any cell is scheduled and never
	// change.
	jl      *journal
	resumed bool

	mu       sync.Mutex
	cond     *sync.Cond
	states   []cellState
	results  []invisifence.Result
	errs     []string
	counts   CellCounts
	events   []Event
	retries  int
	finished bool
}

func newCampaign(id string, spec invisifence.SweepSpec, jobs []invisifence.Config) *Campaign {
	keys := make([]string, len(jobs))
	for i, cfg := range jobs {
		keys[i] = invisifence.ResultKey(cfg)
	}
	c := &Campaign{
		id:      id,
		spec:    spec,
		jobs:    jobs,
		keys:    keys,
		states:  make([]cellState, len(jobs)),
		results: make([]invisifence.Result, len(jobs)),
		errs:    make([]string, len(jobs)),
		counts:  CellCounts{Total: len(jobs), Queued: len(jobs)},
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// ID returns the campaign's server-assigned identifier.
func (c *Campaign) ID() string { return c.id }

// journal appends one record to the campaign's WAL (no-op when
// journaling is disabled).
func (c *Campaign) journal(r journalRecord) { c.jl.record(r) }

// noteRetry counts one scheduled cell retry and journals it.
func (c *Campaign) noteRetry(i int) {
	c.mu.Lock()
	c.retries++
	c.mu.Unlock()
	c.jl.record(journalRecord{T: recRetry, Cell: i})
}

// transition moves cell i to state to, recording the result or error
// that terminal states carry, and appends the corresponding event. count,
// when set, runs before the lock is released, with the campaign's final
// state if this transition finished it ("" otherwise): whatever it applies
// is visible to anyone who sees the transition.
func (c *Campaign) transition(i int, to cellState, res *invisifence.Result, errMsg string, count func(finished string)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	from := c.states[i]
	if from.terminal() {
		// A cell finishes exactly once; a second transition is a
		// scheduler bug worth failing loudly over.
		panic("sweepd: transition on terminal cell")
	}
	c.states[i] = to
	c.counts.dec(from)
	c.counts.inc(to)
	if res != nil {
		c.results[i] = *res
	}
	if errMsg != "" {
		c.errs[i] = errMsg
	}
	c.appendEventLocked(Event{Cell: i, State: to.String()})
	if to.terminal() {
		// The result (if any) is already in the cache — Put precedes the
		// flight release, which precedes this transition — so the WAL
		// only needs the state: replay answers the cell from the cache.
		c.jl.record(journalRecord{T: recCell, Cell: i, State: to.String(), Err: errMsg})
	}
	finished := ""
	if !c.finished && c.counts.terminalLocked() {
		c.finished = true
		finished = c.stateLocked()
		c.appendEventLocked(Event{Cell: -1, State: "campaign " + finished})
		// Terminal campaigns owe no recovery: seal and remove the WAL.
		c.jl.record(journalRecord{T: recDone, State: finished})
		c.jl.retire()
	}
	if count != nil {
		count(finished)
	}
	c.cond.Broadcast()
}

// appendEventLocked stamps the event with its sequence number and the
// campaign's terminal-cell progress. Caller holds mu.
func (c *Campaign) appendEventLocked(e Event) {
	e.Seq = len(c.events)
	e.Done = c.counts.doneLocked()
	e.Total = c.counts.Total
	c.events = append(c.events, e)
}

// checkDone finalizes an empty campaign (no cells to transition).
func (c *Campaign) checkDone() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.finished && c.counts.terminalLocked() {
		c.finished = true
		c.appendEventLocked(Event{Cell: -1, State: "campaign " + c.stateLocked()})
		c.jl.record(journalRecord{T: recDone, State: c.stateLocked()})
		c.jl.retire()
		c.cond.Broadcast()
	}
}

// stateLocked classifies the campaign. Caller holds mu.
func (c *Campaign) stateLocked() string {
	switch {
	case !c.counts.terminalLocked():
		return "running"
	case c.counts.Aborted > 0:
		return "aborted"
	case c.counts.Failed > 0:
		return "failed"
	default:
		return "done"
	}
}

// Status snapshots the campaign for the wire.
func (c *Campaign) Status() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := StatusResponse{
		ID: c.id, State: c.stateLocked(), Cells: c.counts,
		Retries: c.retries, Resumed: c.resumed,
	}
	for i, msg := range c.errs {
		if msg != "" {
			cfg := c.jobs[i]
			st.Failures = append(st.Failures, CellFailure{
				Cell: i, Workload: cfg.Workload, Variant: cfg.Variant.Name,
				Seed: cfg.Seed, Error: msg,
			})
		}
	}
	return st
}

// Finished reports whether every cell is terminal.
func (c *Campaign) Finished() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.finished
}

// Outcome assembles the campaign's results as a SweepOutcome — the same
// structure an offline invisifence.Sweep returns, so Table renders the
// two byte-identically. It is only available once the campaign is "done"
// (every cell carries a result).
func (c *Campaign) Outcome() (*invisifence.SweepOutcome, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.stateLocked(); st != "done" {
		return nil, fmt.Errorf("sweepd: campaign %s is %s, table unavailable", c.id, st)
	}
	out := &invisifence.SweepOutcome{Runs: make([]invisifence.SweepRun, len(c.jobs))}
	for i := range c.jobs {
		out.Runs[i] = invisifence.SweepRun{
			Config: c.jobs[i],
			Result: c.results[i],
			Cached: c.states[i] == cellCached,
		}
		if c.states[i] == cellSimulated {
			out.Simulated++
		}
	}
	return out, nil
}

// EventsSince returns the events with sequence >= seq that already
// exist, without blocking.
func (c *Campaign) EventsSince(seq int) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq >= len(c.events) {
		return nil
	}
	return append([]Event(nil), c.events[seq:]...)
}

// WaitEvent blocks until event seq exists or stop reports true (checked
// on every broadcast). It returns the event and whether it exists.
func (c *Campaign) WaitEvent(seq int, stop func() bool) (Event, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for seq >= len(c.events) {
		if c.finished || stop() {
			return Event{}, false
		}
		c.cond.Wait()
	}
	return c.events[seq], true
}

// Interrupt wakes all WaitEvent callers so they can re-check stop.
func (c *Campaign) Interrupt() {
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// dec/inc maintain the per-state counters through transitions.
func (cc *CellCounts) dec(s cellState) {
	switch s {
	case cellQueued:
		cc.Queued--
	case cellRunning:
		cc.Running--
	}
}

func (cc *CellCounts) inc(s cellState) {
	switch s {
	case cellQueued:
		cc.Queued++
	case cellRunning:
		cc.Running++
	case cellCached:
		cc.Cached++
	case cellSimulated:
		cc.Simulated++
	case cellDeduped:
		cc.Deduped++
	case cellFailed:
		cc.Failed++
	case cellAborted:
		cc.Aborted++
	}
}

// doneLocked counts terminal cells.
func (cc *CellCounts) doneLocked() int {
	return cc.Cached + cc.Simulated + cc.Deduped + cc.Failed + cc.Aborted
}

// terminalLocked reports whether every cell is terminal.
func (cc *CellCounts) terminalLocked() bool { return cc.doneLocked() == cc.Total }
