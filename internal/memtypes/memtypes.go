// Package memtypes defines the basic address and data types shared by every
// level of the simulated memory system: byte addresses, 8-byte words, and
// 64-byte cache blocks. All memory operations in the simulator are word-sized
// and word-aligned; cache and coherence state is kept at block granularity.
package memtypes

// Addr is a byte address in the simulated flat physical address space.
type Addr uint64

// NodeID identifies a node (core + caches + directory slice) in the system.
// It lives here — below both the coherence protocol and the interconnect —
// so the protocol's wire format (coherence.Msg) can name nodes without
// depending on the transport that carries it (network.Message embeds the
// wire format by value; see DESIGN.md §9).
type NodeID int

// Word is the unit of data transfer for loads, stores, and atomics.
type Word uint64

const (
	// BlockShift is log2 of the cache block size in bytes.
	BlockShift = 6
	// BlockBytes is the cache block size (64 bytes, per Figure 6).
	BlockBytes = 1 << BlockShift
	// WordShift is log2 of the word size in bytes.
	WordShift = 3
	// WordBytes is the word size (8 bytes).
	WordBytes = 1 << WordShift
	// WordsPerBlock is the number of words in a cache block.
	WordsPerBlock = BlockBytes / WordBytes
)

// BlockData holds the data payload of one cache block.
type BlockData [WordsPerBlock]Word

// NoEvent is the NextEvent() sentinel meaning "no self-generated future
// event": the component changes state only in response to an external input
// (a message delivery, a fill, a retirement on another component). The
// simulator's idle-skip scheduler jumps the clock to the minimum NextEvent
// across all components; a component returning NoEvent never holds the
// clock back.
const NoEvent = ^uint64(0)

// BlockAddr returns the block-aligned address containing a.
func BlockAddr(a Addr) Addr { return a &^ (BlockBytes - 1) }

// WordAlign returns the word-aligned address containing a.
func WordAlign(a Addr) Addr { return a &^ (WordBytes - 1) }

// WordIndex returns the index of a's word within its block.
func WordIndex(a Addr) int { return int(a>>WordShift) & (WordsPerBlock - 1) }

// SameBlock reports whether two addresses fall in the same cache block.
func SameBlock(a, b Addr) bool { return BlockAddr(a) == BlockAddr(b) }

// Resize returns s with length n and every element zero, reusing s's
// backing array when it holds n: a component's Init sizes its tables with
// it (DESIGN.md §2).
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
