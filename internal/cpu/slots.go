package cpu

import "math/bits"

// slotSet is a set of ROB slots, one bit per slot.
type slotSet []uint64

func (m slotSet) has(s int) bool { return m[s>>6]&(1<<(s&63)) != 0 }

func (m slotSet) add(s int) { m[s>>6] |= 1 << (s & 63) }

func (m slotSet) del(s int) { m[s>>6] &^= 1 << (s & 63) }

// first returns the lowest member of m in slots [lo, hi), or -1.
func (m slotSet) first(lo, hi int) int {
	if lo >= hi {
		return -1
	}
	i := lo >> 6
	w := m[i] & (^uint64(0) << (lo & 63))
	for w == 0 {
		if i++; i<<6 >= hi {
			return -1
		}
		w = m[i]
	}
	if s := i<<6 | bits.TrailingZeros64(w); s < hi {
		return s
	}
	return -1
}

// nth returns the k-th (from 0) member of m in slots [lo, hi), or -1 and
// the number of members there when there are not that many.
func (m slotSet) nth(lo, hi, k int) (int, int) {
	n := 0
	for i := lo >> 6; i<<6 < hi; i++ {
		w := m[i]
		if i == lo>>6 {
			w &= ^uint64(0) << (lo & 63)
		}
		if hi < (i+1)<<6 {
			w &= 1<<(hi&63) - 1
		}
		if c := bits.OnesCount64(w); n+c <= k {
			n += c
			continue
		}
		for j := k - n; j > 0; j-- {
			w &= w - 1
		}
		return i<<6 + bits.TrailingZeros64(w), 0
	}
	return -1, n
}

// slotQueue is a FIFO of ROB slot indices with O(1) head removal: a head
// offset instead of re-slicing, with amortized compaction, so the retire-
// side pops neither walk the queue off its backing array (which forced a
// reallocation every few dozen pushes) nor shift the whole queue per pop.
type slotQueue struct {
	buf  []int
	head int
}

// slots returns the live entries in order (do not retain across mutation).
func (q *slotQueue) slots() []int { return q.buf[q.head:] }

func (q *slotQueue) len() int { return len(q.buf) - q.head }

func (q *slotQueue) push(s int) { q.buf = append(q.buf, s) }

func (q *slotQueue) reset() { q.buf = q.buf[:0]; q.head = 0 }

// popHead drops the first live entry, compacting once the dead prefix
// dominates (amortized O(1), bounded memory).
func (q *slotQueue) popHead() {
	q.head++
	switch {
	case q.head == len(q.buf):
		q.reset()
	case q.head >= 32 && q.head*2 >= len(q.buf):
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
}
