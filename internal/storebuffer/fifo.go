// Package storebuffer implements the two post-retirement store buffer
// organizations from Figure 2 and §3.1 of the paper:
//
//   - a word-granularity FIFO store buffer (SC and TSO conventional
//     implementations): age-ordered, fully-associative search for load
//     forwarding, drained strictly in order;
//   - a block-granularity unordered coalescing store buffer (RMO baseline
//     and all InvisiFence variants): per-word valid bits, entries merge by
//     block, never searched by incoming coherence requests, never supplies
//     data to other processors, extended with flash-invalidation of
//     speculative entries for InvisiFence abort.
package storebuffer

import "invisifence/internal/memtypes"

// FIFOEntry is one retired-but-uncommitted store at word granularity.
type FIFOEntry struct {
	Addr memtypes.Addr // word-aligned
	Val  memtypes.Word
}

// FIFO is the word-granularity FIFO store buffer. Its CAM-based load
// forwarding is what limits its capacity in real designs (§2.1); capacity
// stalls under TSO come from here.
type FIFO struct {
	entries  []FIFOEntry
	capacity int

	// prefetchBuf is the reusable result slice for PrefetchBlocks: the drain
	// engine calls it every cycle, so it must not allocate.
	prefetchBuf []memtypes.Addr

	FullStalls uint64
}

// NewFIFO creates a FIFO store buffer with the given entry capacity.
func NewFIFO(capacity int) *FIFO { return new(FIFO).Init(capacity) }

// Init empties f for capacity and returns it (DESIGN.md §2).
func (f *FIFO) Init(capacity int) *FIFO {
	*f = FIFO{entries: f.entries[:0], capacity: capacity, prefetchBuf: f.prefetchBuf[:0]}
	return f
}

// Full reports whether a push would fail.
func (f *FIFO) Full() bool { return len(f.entries) >= f.capacity }

// Empty reports whether the buffer holds no stores.
func (f *FIFO) Empty() bool { return len(f.entries) == 0 }

// Len returns the current occupancy.
func (f *FIFO) Len() int { return len(f.entries) }

// Push appends a retired store. It returns false (and counts a stall) if
// the buffer is full.
func (f *FIFO) Push(addr memtypes.Addr, val memtypes.Word) bool {
	if f.Full() {
		f.FullStalls++
		return false
	}
	f.entries = append(f.entries, FIFOEntry{Addr: memtypes.WordAlign(addr), Val: val})
	return true
}

// Forward returns the value of the youngest buffered store to the word at
// addr, if any (store-to-load forwarding through the CAM).
func (f *FIFO) Forward(addr memtypes.Addr) (memtypes.Word, bool) {
	wa := memtypes.WordAlign(addr)
	for i := len(f.entries) - 1; i >= 0; i-- {
		if f.entries[i].Addr == wa {
			return f.entries[i].Val, true
		}
	}
	return 0, false
}

// Head returns the oldest entry without removing it, or nil if empty. The
// drain engine writes the head into the L1 once the block is writable.
func (f *FIFO) Head() *FIFOEntry {
	if len(f.entries) == 0 {
		return nil
	}
	return &f.entries[0]
}

// Pop removes the oldest entry.
func (f *FIFO) Pop() {
	if len(f.entries) == 0 {
		panic("storebuffer: pop from empty FIFO")
	}
	copy(f.entries, f.entries[1:])
	f.entries = f.entries[:len(f.entries)-1]
}

// PrefetchBlocks returns the distinct block addresses of up to depth entries
// past the head; the drain engine issues exclusive prefetches for them
// (Flexus-style store prefetching, §6.1). The returned slice is reused
// across calls: callers must not retain it. Deduplication is a linear scan
// of the result — depth is single-digit, so this beats a map and allocates
// nothing.
func (f *FIFO) PrefetchBlocks(depth int) []memtypes.Addr {
	out := f.prefetchBuf[:0]
	for i := 0; i < len(f.entries) && i < depth; i++ {
		ba := memtypes.BlockAddr(f.entries[i].Addr)
		dup := false
		for _, b := range out {
			if b == ba {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, ba)
		}
	}
	f.prefetchBuf = out
	return out
}
