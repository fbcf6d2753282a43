package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestGridSize(t *testing.T) {
	if n := (Grid{3, 2}).Size(); n != 6 {
		t.Fatalf("size: %d", n)
	}
	if n := (Grid{}).Size(); n != 1 {
		t.Fatalf("empty grid size: %d", n)
	}
	empty := Grid{3, 0}
	if n := empty.Size(); n != 0 {
		t.Fatalf("empty axis size: %d", n)
	}
	if cells := empty.Expand(); cells != nil {
		t.Fatalf("empty axis expand: %v", cells)
	}
}

func TestGridExpandRowMajor(t *testing.T) {
	cells := Grid{3, 2}.Expand()
	want := [][]int{
		{0, 0}, {0, 1},
		{1, 0}, {1, 1},
		{2, 0}, {2, 1},
	}
	if !reflect.DeepEqual(cells, want) {
		t.Fatalf("cells: %v, want %v", cells, want)
	}
	// Cells are independent slices: appending to one cannot clobber
	// the next.
	_ = append(cells[0], 9)
	if cells[1][0] != 0 || cells[1][1] != 1 {
		t.Fatalf("cell 1 clobbered: %v", cells[1])
	}
	// Expansion is deterministic.
	if !reflect.DeepEqual(Grid{3, 2}.Expand(), cells) {
		t.Fatal("expansion not reproducible")
	}
}

// TestRunDeterministicOrder is the core worker-pool guarantee: the result
// slice is ordered by job index no matter how many workers run or how the
// scheduler interleaves them.
func TestRunDeterministicOrder(t *testing.T) {
	jobs := make([]int, 40)
	for i := range jobs {
		jobs[i] = i
	}
	fn := func(j int) (string, error) {
		// Earlier jobs sleep longer, so completion order inverts
		// submission order under concurrency.
		time.Sleep(time.Duration(len(jobs)-j) * 100 * time.Microsecond)
		return fmt.Sprintf("r%d", j), nil
	}
	serial, err := Run(jobs, Options{Workers: 1}, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 64} {
		got, err := Run(jobs, Options{Workers: workers}, fn)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d reordered results:\n%v\nvs serial\n%v", workers, got, serial)
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	jobs := make([]int, 30)
	_, err := Run(jobs, Options{Workers: 3}, func(int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("concurrency peaked at %d with 3 workers", p)
	}
}

func TestRunReturnsLowestIndexedError(t *testing.T) {
	jobs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := Run(jobs, Options{Workers: workers}, func(j int) (int, error) {
			if j == 3 || j == 5 {
				return 0, fmt.Errorf("job-%d: %w", j, boom)
			}
			return j, nil
		})
		if err == nil {
			t.Fatal("expected error")
		}
		var je *JobError
		if !errors.As(err, &je) {
			t.Fatalf("want *JobError, got %T", err)
		}
		if je.Index != 3 {
			t.Fatalf("workers=%d: first error index %d, want 3", workers, je.Index)
		}
		if !errors.Is(err, boom) {
			t.Fatal("Unwrap lost the cause")
		}
	}
}

func TestRunStopsSchedulingAfterError(t *testing.T) {
	jobs := make([]int, 100)
	for i := range jobs {
		jobs[i] = i
	}
	var started atomic.Int64
	_, err := Run(jobs, Options{Workers: 2}, func(j int) (int, error) {
		started.Add(1)
		if j == 0 {
			return 0, errors.New("early failure")
		}
		return j, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := started.Load(); n > 10 {
		t.Fatalf("pool kept scheduling after failure: %d jobs started", n)
	}
}

func TestRunEmptyAndZeroWorkers(t *testing.T) {
	got, err := Run(nil, Options{}, func(j int) (int, error) { return j, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty: %v %v", got, err)
	}
	got, err = Run([]int{7}, Options{Workers: -3}, func(j int) (int, error) { return j * 2, nil })
	if err != nil || !reflect.DeepEqual(got, []int{14}) {
		t.Fatalf("zero workers: %v %v", got, err)
	}
}
