// Package cache implements the set-associative write-back caches of the
// simulated node (L1D and L2 from Figure 6), including the paper's additions
// to the primary data cache: per-line speculatively-read and
// speculatively-written bits (one pair per in-flight checkpoint epoch) with
// single-cycle flash-clear and conditional flash-invalidate operations —
// the behavioural equivalent of the augmented SRAM cells in Figure 3.
package cache

import (
	"fmt"
	"math/bits"

	"invisifence/internal/memtypes"
)

// LineState is the MESI state of a cache line.
type LineState uint8

const (
	// Invalid: no valid copy.
	Invalid LineState = iota
	// Shared: read-only copy; other caches may hold it too.
	Shared
	// Exclusive: writable clean copy; no other cache holds it.
	Exclusive
	// Modified: writable dirty copy; memory is stale.
	Modified
)

// String implements fmt.Stringer.
func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("LineState(%d)", uint8(s))
}

// Writable reports whether a line in this state may be written locally.
func (s LineState) Writable() bool { return s == Exclusive || s == Modified }

// Valid reports whether the line holds a usable copy.
func (s LineState) Valid() bool { return s != Invalid }

// MaxEpochs is the number of speculative checkpoint epochs the bit arrays
// support. InvisiFence uses one (optionally two, §3.1); the ASO baseline's
// periodic checkpointing (§2.2) uses up to four.
const MaxEpochs = 4

// Line is one cache line, 88 bytes. Its speculative bits are two epoch
// bitmasks: bit e of specRead (specWritten) is epoch e's speculatively-read
// (-written) bit.
type Line struct {
	Addr        memtypes.Addr // block-aligned; meaningful only when valid
	State       LineState
	specRead    uint8
	specWritten uint8
	Data        memtypes.BlockData
	lru         uint64
}

// SpecRead reports the epoch's speculatively-read bit.
func (l *Line) SpecRead(epoch int) bool { return l.specRead&(1<<epoch) != 0 }

// SpecWritten reports the epoch's speculatively-written bit.
func (l *Line) SpecWritten(epoch int) bool { return l.specWritten&(1<<epoch) != 0 }

// SpecAny reports whether any speculative bit is set on the line.
func (l *Line) SpecAny() bool { return l.specRead|l.specWritten != 0 }

// SpecWrittenAny reports whether any epoch's written bit is set.
func (l *Line) SpecWrittenAny() bool { return l.specWritten != 0 }

// SpecReadAny reports whether any epoch's read bit is set.
func (l *Line) SpecReadAny() bool { return l.specRead != 0 }

// OldestSpecEpoch returns the lowest epoch index with a bit set on the line,
// or -1 if none. The caller maps epoch indexes to checkpoint age.
func (l *Line) OldestSpecEpoch() int {
	if m := l.specRead | l.specWritten; m != 0 {
		return bits.TrailingZeros8(m)
	}
	return -1
}

func (l *Line) clearSpec(epoch int) {
	l.specRead &^= 1 << epoch
	l.specWritten &^= 1 << epoch
}

// Config describes one cache's geometry and timing.
type Config struct {
	SizeBytes  int
	Ways       int
	HitLatency uint64
	Name       string // for error messages and stats
}

// Cache is a set-associative write-back cache with LRU replacement.
type Cache struct {
	cfg Config
	// Sets materialize lazily, on the first install that touches them: a
	// Figure 6 machine carries ~17 MB of line state across its 16 nodes, and
	// zeroing all of it up front dominated short runs' setup time. setIdx[s]
	// is 0 while set s was never touched (it behaves as all-invalid) and
	// k > 0 once it lives in sets[k-1]. A 4-byte index instead of a 24-byte
	// slice header per set keeps an unused cache small; each set's lines are
	// their own allocation, so a *Line never moves (touched holds them).
	setIdx   []uint32
	sets     [][]Line // past len: a rebuilt cache's old sets, spares
	setMask  uint64
	lruClock uint64

	// touched[epoch] lists lines that may carry that epoch's speculative
	// bits: every false->true bit transition goes through MarkSpecRead/
	// MarkSpecWritten, which appends the line on its first marking. The
	// flash operations then visit only these lines instead of walking the
	// whole cache per commit/abort. Entries may be stale (bits since
	// cleared by an invalidation) or duplicated (re-marked after an
	// invalidation); both are harmless because the flash operations
	// re-check the bits.
	touched [MaxEpochs][]*Line

	// Stats.
	Hits, Misses, Evictions, Writebacks uint64
}

// New creates a cache. SizeBytes must be a multiple of Ways*BlockBytes and
// the resulting set count must be a power of two.
func New(cfg Config) *Cache { return new(Cache).Init(cfg) }

// Init empties c for cfg and returns it (DESIGN.md §2): a rebuilt cache keeps
// its index and touched lists, and its sets as spares for materialize.
func (c *Cache) Init(cfg Config) *Cache {
	if cfg.Ways <= 0 {
		panic("cache: ways must be positive")
	}
	lines := cfg.SizeBytes / memtypes.BlockBytes
	if lines <= 0 || lines%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache %s: %d bytes / %d ways is not a whole number of sets", cfg.Name, cfg.SizeBytes, cfg.Ways))
	}
	nsets := lines / cfg.Ways
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d is not a power of two", cfg.Name, nsets))
	}
	old := *c
	*c = Cache{
		cfg:     cfg,
		setIdx:  memtypes.Resize(old.setIdx, nsets),
		sets:    old.sets[:0],
		setMask: uint64(nsets - 1),
	}
	for e := range c.touched {
		c.touched[e] = old.touched[e][:0]
	}
	return c
}

// materialize allocates a set's lines on first use (all invalid), reusing
// the spare past the end of sets if there is one.
func (c *Cache) materialize(idx uint64) []Line {
	var set []Line
	if k := len(c.sets); k < cap(c.sets) {
		set = c.sets[:k+1][k]
	}
	set = memtypes.Resize(set, c.cfg.Ways)
	c.sets = append(c.sets, set)
	c.setIdx[idx] = uint32(len(c.sets))
	return set
}

// HitLatency returns the configured access latency in cycles.
func (c *Cache) HitLatency() uint64 { return c.cfg.HitLatency }

// Sets returns the number of sets (used by tests).
func (c *Cache) Sets() int { return len(c.setIdx) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// setFor returns a's set, nil (all invalid) if it was never touched.
func (c *Cache) setFor(a memtypes.Addr) []Line {
	if k := c.setIdx[(uint64(a)>>memtypes.BlockShift)&c.setMask]; k > 0 {
		return c.sets[k-1]
	}
	return nil
}

// Lookup returns the line holding a's block and records an LRU touch, or nil
// on miss.
func (c *Cache) Lookup(a memtypes.Addr) *Line {
	ba := memtypes.BlockAddr(a)
	set := c.setFor(a)
	for i := range set {
		l := &set[i]
		if l.State.Valid() && l.Addr == ba {
			c.lruClock++
			l.lru = c.lruClock
			c.Hits++
			return l
		}
	}
	c.Misses++
	return nil
}

// Peek returns the line holding a's block without touching LRU or stats, or
// nil if not present. Used by external probes and spec-bit checks.
func (c *Cache) Peek(a memtypes.Addr) *Line {
	ba := memtypes.BlockAddr(a)
	set := c.setFor(a)
	for i := range set {
		l := &set[i]
		if l.State.Valid() && l.Addr == ba {
			return l
		}
	}
	return nil
}

// Victim selects the line to evict to make room for a's block. It prefers
// invalid lines, then the LRU line among those without speculative bits,
// then (only if allowSpec) the overall LRU line. It returns nil if no
// eligible victim exists (all ways speculative and allowSpec is false).
// The returned line is not modified; the caller evicts and installs.
func (c *Cache) Victim(a memtypes.Addr, allowSpec bool) *Line {
	return c.VictimFiltered(a, allowSpec, nil)
}

// VictimFiltered is Victim with an additional exclusion predicate: lines
// whose block address is "locked" (outstanding miss, pending store-buffer
// entries, cleaning writeback in progress) must not be evicted.
func (c *Cache) VictimFiltered(a memtypes.Addr, allowSpec bool, locked func(memtypes.Addr) bool) *Line {
	set := c.setFor(a)
	if set == nil {
		set = c.materialize((uint64(a) >> memtypes.BlockShift) & c.setMask)
		return &set[0] // freshly materialized: every way is invalid
	}
	var nonSpec, spec *Line
	for i := range set {
		l := &set[i]
		if !l.State.Valid() {
			return l
		}
		if locked != nil && locked(l.Addr) {
			continue
		}
		if l.SpecAny() {
			if spec == nil || l.lru < spec.lru {
				spec = l
			}
		} else {
			if nonSpec == nil || l.lru < nonSpec.lru {
				nonSpec = l
			}
		}
	}
	if nonSpec != nil {
		return nonSpec
	}
	if allowSpec {
		return spec
	}
	return nil
}

// Install fills a's block into the given line (previously returned by
// Victim and already evicted by the caller). It resets speculative bits.
func (c *Cache) Install(l *Line, a memtypes.Addr, data memtypes.BlockData, st LineState) {
	if l.State.Valid() {
		panic(fmt.Sprintf("cache %s: install over valid line %#x", c.cfg.Name, uint64(l.Addr)))
	}
	c.lruClock++
	*l = Line{Addr: memtypes.BlockAddr(a), State: st, Data: data, lru: c.lruClock}
}

// Invalidate drops a's block if present, returning the prior line contents
// so the caller can write back dirty data.
func (c *Cache) Invalidate(a memtypes.Addr) (Line, bool) {
	l := c.Peek(a)
	if l == nil {
		return Line{}, false
	}
	old := *l
	l.State = Invalid
	l.specRead, l.specWritten = 0, 0
	c.Evictions++
	return old, true
}

// MarkSpecRead sets the epoch's speculatively-read bit on a line obtained
// from this cache, registering the line for O(touched) flash operations.
func (c *Cache) MarkSpecRead(l *Line, epoch int) {
	if !l.SpecRead(epoch) {
		if !l.SpecWritten(epoch) {
			c.touched[epoch] = append(c.touched[epoch], l)
		}
		l.specRead |= 1 << epoch
	}
}

// MarkSpecWritten sets the epoch's speculatively-written bit on a line
// obtained from this cache, registering the line for flash operations.
func (c *Cache) MarkSpecWritten(l *Line, epoch int) {
	if !l.SpecWritten(epoch) {
		if !l.SpecRead(epoch) {
			c.touched[epoch] = append(c.touched[epoch], l)
		}
		l.specWritten |= 1 << epoch
	}
}

// FlashClearSpec clears the given epoch's speculative bits on every line:
// the paper's single-cycle commit operation. Only lines the epoch actually
// marked are visited (the hardware flash-clears a column of SRAM cells in
// one cycle; the model must not pay a full cache walk per commit).
func (c *Cache) FlashClearSpec(epoch int) {
	for _, l := range c.touched[epoch] {
		l.clearSpec(epoch)
	}
	clear(c.touched[epoch])
	c.touched[epoch] = c.touched[epoch][:0]
}

// ConditionalInvalidate invalidates every line whose speculatively-written
// bit for the epoch is set (the paper's abort operation) and clears that
// epoch's bits everywhere. It returns the number of lines invalidated.
// Invalidated speculative lines are discarded without writeback: the
// pre-speculative value is guaranteed to live in the next cache level by
// the cleaning-writeback rule (§3.2).
func (c *Cache) ConditionalInvalidate(epoch int) int {
	n := 0
	for _, l := range c.touched[epoch] {
		if l.SpecWritten(epoch) && l.State.Valid() {
			l.State = Invalid
			n++
		}
		l.clearSpec(epoch)
	}
	clear(c.touched[epoch])
	c.touched[epoch] = c.touched[epoch][:0]
	return n
}

// SpecLineCount returns how many lines carry speculative bits for the epoch
// (stats/tests).
func (c *Cache) SpecLineCount(epoch int) int {
	n := 0
	for _, set := range c.sets {
		for i := range set {
			if set[i].SpecRead(epoch) || set[i].SpecWritten(epoch) {
				n++
			}
		}
	}
	return n
}
