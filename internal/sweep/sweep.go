// Package sweep numbers the cells of parameter grids and executes job
// lists on a bounded work-stealing worker pool with deterministic result
// ordering.
//
// A Grid is the shape of a cross-product: one length per axis. Expand
// lists every cell's axis positions in row-major order (the last axis
// varies fastest), so a grid expands to the same job sequence on every
// run. Run maps an arbitrary job slice through a worker function: results come
// back indexed exactly like the input jobs regardless of worker count or
// completion order, which keeps downstream tables byte-identical between a
// serial debug run and a 32-way sweep. Run is one-shot; long-running
// callers (the sweepd campaign server) use Pool directly, whose per-worker
// stealable queues keep skewed cell costs from serializing behind one
// worker.
package sweep

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Grid is the shape of a parameter grid: the number of values on each
// axis, first axis slowest.
type Grid []int

// Size returns the number of cells in the product (1 for an empty grid,
// 0 if any axis is empty).
func (g Grid) Size() int {
	n := 1
	for _, k := range g {
		n *= k
	}
	return n
}

// Expand returns every cell's axis positions (one index per axis) in
// row-major order: the first axis varies slowest, the last fastest. It
// returns nil when the product is empty.
func (g Grid) Expand() [][]int {
	n := g.Size()
	if n == 0 {
		return nil
	}
	cells := make([][]int, n)
	pos := make([]int, n*len(g))
	for i := range cells {
		c := pos[i*len(g) : (i+1)*len(g) : (i+1)*len(g)]
		rem := i
		for ax := len(g) - 1; ax >= 0; ax-- {
			c[ax] = rem % g[ax]
			rem /= g[ax]
		}
		cells[i] = c
	}
	return cells
}

// Options configures Run.
type Options struct {
	// Workers bounds concurrency (values < 1 mean 1). Simulations stay
	// single-threaded internally; the pool only parallelizes independent
	// jobs.
	Workers int
}

// JobError wraps the first-by-index failure of a sweep.
type JobError struct {
	// Index is the failing job's position in the input slice.
	Index int
	// Err is the worker function's error.
	Err error
}

// Error implements error.
func (e *JobError) Error() string { return fmt.Sprintf("job %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// Run executes fn over jobs on a bounded worker pool and returns the
// results in job order: results[i] is fn(jobs[i]) no matter how many
// workers ran or in what order they finished. On failure, Run still waits
// for in-flight jobs, skips unstarted ones, and returns the error of the
// lowest-indexed failing job (again independent of scheduling), wrapped in
// a *JobError.
//
// Run is a one-shot convenience over Pool: it builds a pool of the
// requested width, submits every job, drains, and closes. Long-running
// callers (the sweepd campaign scheduler) hold a Pool directly so
// independent job batches share workers and steal from each other.
func Run[J, R any](jobs []J, opts Options, fn func(J) (R, error)) ([]R, error) {
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if len(jobs) == 0 {
		return []R{}, nil
	}
	results := make([]R, len(jobs))
	var (
		next   atomic.Int64 // next job index to claim
		failed atomic.Bool  // stop claiming new jobs after any failure

		mu   sync.Mutex
		errs []*JobError
	)
	// One task per job, but tasks claim indexes from a shared counter
	// rather than carrying one: fn starts in strict index order no matter
	// which queue a task sat in or which worker stole it. That keeps the
	// old contract — after a failure every unstarted job has a higher
	// index than every recorded error, so the lowest recorded error is
	// scheduling-independent.
	pool := NewPool(workers)
	for range jobs {
		pool.Submit(func() {
			i := int(next.Add(1)) - 1
			if failed.Load() {
				return
			}
			r, err := fn(jobs[i])
			if err != nil {
				failed.Store(true)
				mu.Lock()
				errs = append(errs, &JobError{Index: i, Err: err})
				mu.Unlock()
				return
			}
			results[i] = r
		})
	}
	pool.Close()
	if len(errs) > 0 {
		sort.Slice(errs, func(a, b int) bool { return errs[a].Index < errs[b].Index })
		return nil, errs[0]
	}
	return results, nil
}
