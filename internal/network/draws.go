package network

import (
	"math/rand"
	"sync/atomic"
)

// Shared jitter draws (DESIGN.md §2). A jittered network's delays are the
// sequence rand.New(rand.NewSource(Seed)).Int63n(Jitter+1), a pure function
// of (seed, bound). Seeding math/rand's generator costs 1,841 LCG steps and
// a 4.9 KB state, while a litmus run draws a few dozen values, so the first
// jitterPrefix draws of each sequence are produced once per process and
// shared read-only; each Network keeps only a cursor into them. A run that
// reads past the prefix continues from a private generator, seeded and
// advanced past the prefix on first use, so every draw stays exact.
//
// The memo is a direct-mapped table of drawSlots immutable sequences, so its
// memory is bounded by construction: at most drawSlots*(16 + 8*jitterPrefix)
// bytes, about 2.1 MB. Two keys that share a slot replace each other; the
// loser is rebuilt on its next use, which costs what a private generator
// always cost. Slots are atomic pointers to sequences that are never written
// after publication, so networks built on different goroutines (crossval's
// and fencesearch's worker pools) read the memo without a lock.
const (
	jitterPrefix = 256
	drawSlotBits = 10
	drawSlots    = 1 << drawSlotBits
)

// drawSeq is the first jitterPrefix draws of one (seed, bound) sequence.
type drawSeq struct {
	seed, bound int64
	v           [jitterPrefix]int64
}

var drawMemo [drawSlots]atomic.Pointer[drawSeq]

// drawSlot maps a key to its memo slot. Fibonacci hashing keeps consecutive
// seeds under one bound (a litmus sweep) in distinct slots.
func drawSlot(seed, bound int64) uint64 {
	return (uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(bound)*0xC2B2AE3D27D4EB4F) >> (64 - drawSlotBits)
}

// sharedDraws returns the memoized prefix of the (seed, bound) sequence,
// drawing it with math/rand on a miss.
func sharedDraws(seed, bound int64) *drawSeq {
	slot := &drawMemo[drawSlot(seed, bound)]
	if d := slot.Load(); d != nil && d.seed == seed && d.bound == bound {
		return d
	}
	d := &drawSeq{seed: seed, bound: bound}
	r := rand.New(rand.NewSource(seed))
	for i := range d.v {
		d.v[i] = r.Int63n(bound)
	}
	slot.Store(d)
	return d
}

// jitterDraws is one network's cursor into its jitter sequence. It looks
// nothing up until its first draw, so a network that never sends pays
// nothing. A rebuilt network re-seeds its old private generator.
type jitterDraws struct {
	seed, bound int64
	seq         *drawSeq
	next        int
	tail        *rand.Rand // private continuation past the shared prefix
}

// draw returns the next value of rand.New(rand.NewSource(seed)).Int63n(bound).
func (d *jitterDraws) draw() int64 {
	if d.next < jitterPrefix {
		if d.seq == nil {
			d.seq = sharedDraws(d.seed, d.bound)
		}
		v := d.seq.v[d.next]
		d.next++
		return v
	}
	if d.next == jitterPrefix {
		if d.tail == nil {
			d.tail = rand.New(rand.NewSource(d.seed))
		} else {
			d.tail.Seed(d.seed)
		}
		for i := 0; i < jitterPrefix; i++ {
			d.tail.Int63n(d.bound)
		}
		d.next++
	}
	return d.tail.Int63n(d.bound)
}
