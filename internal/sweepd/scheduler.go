package sweepd

import (
	"fmt"
	"time"

	"invisifence"
	"invisifence/internal/runcache"
	"invisifence/internal/stats"
)

// runCell satisfies one campaign cell through runcache.Resolve: it joins
// the cell's flight (sharing a simulation another worker is already
// running), and the flight's leader answers from the persistent cache or
// runs a fresh simulation published back into the cache before any
// follower is released — so by the time a waiter or a restarted process
// asks, the cache answers.
//
// Every attempt runs under the watchdog deadline, and a timed-out or
// failed attempt is retried with capped exponential backoff until the
// attempt budget is spent — then the cell, never the campaign, is
// marked failed. A timed-out attempt's simulation keeps running in the
// background and publishes on completion, so a retry often joins its
// flight or finds the answer in the cache.
func (s *Server) runCell(c *Campaign, i int) {
	if s.draining.Load() {
		c.transition(i, cellAborted, nil, "server draining: cell was queued, never started")
		s.finishCampaign(c, func(t *stats.ServerStats) { t.CellsAborted++ })
		return
	}
	c.transition(i, cellRunning, nil, "")
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
		c.journal(journalRecord{T: recStart, Cell: i, Attempt: attempt})
		res, origin, err := s.attempt(c, i, timeout)
		switch {
		case err == errCellTimeout:
			s.count(func(t *stats.ServerStats) { t.CellTimeouts++ })
			lastErr = fmt.Errorf("attempt %d exceeded the %v cell deadline", attempt, timeout)
		case err != nil:
			lastErr = err
		default:
			to, count := cellSimulated, func(t *stats.ServerStats) { t.CellsSimulated++ }
			switch origin {
			case runcache.Cached:
				to, count = cellCached, func(t *stats.ServerStats) { t.CellsCached++ }
			case runcache.Shared:
				to, count = cellDeduped, func(t *stats.ServerStats) { t.CellsDeduped++ }
			}
			c.transition(i, to, &res, "")
			s.finishCampaign(c, count)
			return
		}
	}
	c.transition(i, cellFailed, nil, lastErr.Error())
	s.finishCampaign(c, func(t *stats.ServerStats) { t.CellsFailed++ })
}

// errCellTimeout marks a watchdog expiry (distinguished from simulation
// errors so it can be counted separately).
var errCellTimeout = fmt.Errorf("sweepd: cell deadline exceeded")

// attempt executes one watchdogged try of a cell. On timeout the
// resolution goroutine is abandoned, not killed: it keeps running,
// publishes its result into the cache on completion (a retry joins its
// flight or finds the result cached), and its buffered channel lets it
// exit. The worker, though, is freed — which is what bounds drain time.
func (s *Server) attempt(c *Campaign, i int, timeout time.Duration) (invisifence.Result, runcache.Origin, error) {
	type outcome struct {
		res    invisifence.Result
		origin runcache.Origin
		err    error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, origin, err := runcache.Resolve(s.cache, c.keys[i], func() (invisifence.Result, error) {
			return s.safeRun(c.jobs[i])
		})
		ch <- outcome{res, origin, err}
	}()
	var after <-chan time.Time
	if timeout > 0 {
		after = s.clock.After(timeout)
	}
	select {
	case o := <-ch:
		return o.res, o.origin, o.err
	case <-after:
		return invisifence.Result{}, 0, errCellTimeout
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
// server all survive. (Resolve's flight has the same guard, so even a
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
