package sweepd

import (
	"fmt"
	"time"

	"invisifence"
	"invisifence/internal/stats"
)

// runCell satisfies one campaign cell. The resolution order is the
// server's economy: persistent cache first (free), then the in-flight
// registry (share a simulation another worker is already running), then
// a fresh simulation published back into the cache before any
// single-flight follower is released — so by the time a waiter or a
// restarted process asks, the cache answers.
//
// Every attempt runs under the watchdog deadline, and a timed-out or
// failed attempt is retried with capped exponential backoff until the
// attempt budget is spent — then the cell, never the campaign, is
// marked failed. The cache is re-checked before each attempt: a
// timed-out attempt's simulation keeps running in the background and
// publishes on completion, so a retry often finds the answer waiting.
func (s *Server) runCell(c *Campaign, i int) {
	if s.draining.Load() {
		c.transition(i, cellAborted, nil, "server draining: cell was queued, never started")
		s.finishCampaign(c, func(t *stats.ServerStats) { t.CellsAborted++ })
		return
	}
	c.transition(i, cellRunning, nil, "")
	key := c.keys[i]
	timeout := s.cellTimeout(c.spec.Scale)
	attempts := 1 + s.opts.MaxCellRetries
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.noteRetry(i)
			s.count(func(t *stats.ServerStats) { t.CellRetries++ })
			if d := s.backoff(attempt); d > 0 {
				s.clock.Sleep(d)
			}
			if s.draining.Load() {
				lastErr = fmt.Errorf("server draining: retry %d abandoned (%w)", attempt, lastErr)
				break
			}
		}
		var res invisifence.Result
		if ok, _ := s.cache.Get(key, &res); ok {
			c.transition(i, cellCached, &res, "")
			s.finishCampaign(c, func(t *stats.ServerStats) { t.CellsCached++ })
			return
		}
		c.journal(journalRecord{T: recStart, Cell: i, Attempt: attempt})
		v, shared, err := s.attempt(c, i, key, timeout)
		switch {
		case err == errCellTimeout:
			s.count(func(t *stats.ServerStats) { t.CellTimeouts++ })
			lastErr = fmt.Errorf("attempt %d exceeded the %v cell deadline", attempt, timeout)
		case err != nil:
			lastErr = err
		default:
			fr := v.(flightResult)
			to, count := cellSimulated, func(t *stats.ServerStats) { t.CellsSimulated++ }
			switch {
			case shared:
				to, count = cellDeduped, func(t *stats.ServerStats) { t.CellsDeduped++ }
			case fr.cached:
				to, count = cellCached, func(t *stats.ServerStats) { t.CellsCached++ }
			}
			c.transition(i, to, &fr.res, "")
			s.finishCampaign(c, count)
			return
		}
	}
	c.transition(i, cellFailed, nil, lastErr.Error())
	s.finishCampaign(c, func(t *stats.ServerStats) { t.CellsFailed++ })
}

// flightResult is a cell flight's value: the result, and whether the
// leader found it in the cache instead of simulating it.
type flightResult struct {
	res    invisifence.Result
	cached bool
}

// errCellTimeout marks a watchdog expiry (distinguished from simulation
// errors so it can be counted separately).
var errCellTimeout = fmt.Errorf("sweepd: cell deadline exceeded")

// attempt executes one watchdogged try of a cell. On timeout the
// simulation goroutine is abandoned, not killed: it keeps running,
// publishes its result into the cache on completion (the retry loop's
// pre-attempt cache check collects it), and its buffered channel lets it
// exit. The worker, though, is freed — which is what bounds drain time.
func (s *Server) attempt(c *Campaign, i int, key string, timeout time.Duration) (any, bool, error) {
	type outcome struct {
		v      any
		shared bool
		err    error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, shared, err := s.flight.Do(key, func() (any, error) {
			// Re-check the cache as leader: a flight for this key may have
			// published and ended between runCell's cache check and this
			// Do, and simulating it again would double the work.
			var r invisifence.Result
			if ok, _ := s.cache.Get(key, &r); ok {
				return flightResult{res: r, cached: true}, nil
			}
			r, err := s.safeRun(c.jobs[i])
			if err != nil {
				return nil, err
			}
			// Publish before the flight releases its followers:
			// best-effort (a failed write degrades a future process to
			// re-simulation), but ordered so a drain that returns after
			// this cell finished implies the result is on disk.
			_ = s.cache.Put(key, r)
			return flightResult{res: r}, nil
		})
		ch <- outcome{v, shared, err}
	}()
	var after <-chan time.Time
	if timeout > 0 {
		after = s.clock.After(timeout)
	}
	select {
	case o := <-ch:
		return o.v, o.shared, o.err
	case <-after:
		return nil, false, errCellTimeout
	}
}

// cellTimeout derives the per-attempt watchdog deadline from the spec's
// scale: CellTimeout when set, a scale-proportional budget when zero,
// none when negative.
func (s *Server) cellTimeout(scale float64) time.Duration {
	switch {
	case s.opts.CellTimeout > 0:
		return s.opts.CellTimeout
	case s.opts.CellTimeout < 0:
		return 0
	}
	mult := scale
	if mult < 1 {
		mult = 1
	}
	return time.Duration(float64(defaultScaleBudget) * mult)
}

// backoff is the sleep before retry attempt k (k >= 1): capped
// exponential on the configured base.
func (s *Server) backoff(attempt int) time.Duration {
	base := s.opts.RetryBackoff
	if base <= 0 {
		return 0
	}
	d := base
	for k := 1; k < attempt && d < backoffCap*base; k++ {
		d *= 2
	}
	if d > backoffCap*base {
		d = backoffCap * base
	}
	return d
}

// safeRun executes one cell, converting a panic into an error: a
// poisoned cell fails alone — the worker, its queue siblings, and the
// server all survive. (The flight layer has the same guard, so even a
// panic outside safeRun's window could not strand followers.) The cell
// fault-injection site fires inside the guard, so injected panics take
// the organic path.
func (s *Server) safeRun(cfg invisifence.Config) (res invisifence.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("sweepd: cell %s/%s seed=%d panicked: %v",
				cfg.Workload, cfg.Variant.Name, cfg.Seed, p)
		}
	}()
	s.inj.Delay(SiteCell)
	s.inj.MaybePanic(SiteCell)
	if err := s.inj.Err(SiteCell); err != nil {
		return res, err
	}
	return s.opts.Run(cfg)
}

// finishCampaign applies the cell's telemetry delta and, when this cell
// completed its campaign, the campaign-level counters.
func (s *Server) finishCampaign(c *Campaign, cell func(*stats.ServerStats)) {
	st := ""
	c.mu.Lock()
	if c.finished {
		st = c.stateLocked()
	}
	justFinished := c.finished && !c.counted
	c.counted = c.finished
	c.mu.Unlock()
	s.count(func(t *stats.ServerStats) {
		cell(t)
		if justFinished {
			if st == "done" {
				t.CampaignsCompleted++
			} else {
				t.CampaignsFailed++
			}
		}
	})
}
