package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"invisifence/internal/memtypes"
)

func mk(t *testing.T, kb, ways int) *Cache {
	t.Helper()
	return New(Config{SizeBytes: kb << 10, Ways: ways, HitLatency: 2, Name: "test"})
}

func TestLookupInstall(t *testing.T) {
	c := mk(t, 4, 2)
	a := memtypes.Addr(0x1000)
	if c.Lookup(a) != nil {
		t.Fatal("hit on empty cache")
	}
	v := c.Victim(a, false)
	if v == nil {
		t.Fatal("no victim in empty set")
	}
	var d memtypes.BlockData
	d[3] = 77
	c.Install(v, a, d, Shared)
	l := c.Lookup(a)
	if l == nil || l.Data[3] != 77 || l.State != Shared {
		t.Fatalf("bad line after install: %+v", l)
	}
	// Same block, different word address.
	if c.Lookup(a+8) == nil {
		t.Fatal("same-block lookup missed")
	}
	// Different set.
	if c.Lookup(a+memtypes.Addr(c.Sets()*memtypes.BlockBytes)) != nil {
		t.Fatal("spurious hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := mk(t, 4, 2) // 32 sets
	setStride := memtypes.Addr(c.Sets() * memtypes.BlockBytes)
	a0, a1, a2 := memtypes.Addr(0), setStride, 2*setStride // same set
	for _, a := range []memtypes.Addr{a0, a1} {
		v := c.Victim(a, false)
		c.Install(v, a, memtypes.BlockData{}, Exclusive)
	}
	c.Lookup(a0) // a0 is now MRU
	v := c.Victim(a2, false)
	if v.Addr != a1 {
		t.Fatalf("victim = %#x, want a1 (%#x)", uint64(v.Addr), uint64(a1))
	}
}

func TestVictimPrefersNonSpec(t *testing.T) {
	c := mk(t, 4, 2)
	setStride := memtypes.Addr(c.Sets() * memtypes.BlockBytes)
	a0, a1 := memtypes.Addr(0), setStride
	v := c.Victim(a0, false)
	c.Install(v, a0, memtypes.BlockData{}, Modified)
	v = c.Victim(a1, false)
	c.Install(v, a1, memtypes.BlockData{}, Modified)
	// Mark the LRU line speculative: the other must be chosen.
	c.MarkSpecWritten(c.Peek(a0), 0)
	c.Lookup(a1) // make a1 MRU; a0 is LRU but speculative
	v = c.Victim(2*setStride, false)
	if v == nil || v.Addr != a1 {
		t.Fatalf("victim should avoid speculative LRU line")
	}
	// With both speculative and allowSpec=false: no victim.
	c.MarkSpecRead(c.Peek(a1), 1)
	if c.Victim(2*setStride, false) != nil {
		t.Fatal("victim offered despite all-speculative set")
	}
	if c.Victim(2*setStride, true) == nil {
		t.Fatal("allowSpec should offer a victim")
	}
}

func TestVictimFilteredLocked(t *testing.T) {
	c := mk(t, 4, 2)
	setStride := memtypes.Addr(c.Sets() * memtypes.BlockBytes)
	a0, a1 := memtypes.Addr(0), setStride
	for _, a := range []memtypes.Addr{a0, a1} {
		v := c.Victim(a, false)
		c.Install(v, a, memtypes.BlockData{}, Shared)
	}
	locked := func(a memtypes.Addr) bool { return a == a0 }
	v := c.VictimFiltered(2*setStride, false, locked)
	if v == nil || v.Addr != a1 {
		t.Fatal("filter did not exclude locked block")
	}
}

func TestFlashClearSpec(t *testing.T) {
	c := mk(t, 4, 2)
	for i := 0; i < 8; i++ {
		a := memtypes.Addr(i * memtypes.BlockBytes)
		v := c.Victim(a, false)
		c.Install(v, a, memtypes.BlockData{}, Exclusive)
		l := c.Peek(a)
		if i%2 == 0 {
			c.MarkSpecRead(l, 0)
		}
		if i%3 == 0 {
			c.MarkSpecWritten(l, 1)
		}
	}
	c.FlashClearSpec(0)
	if c.SpecLineCount(0) != 0 {
		t.Fatal("epoch 0 bits survived flash clear")
	}
	if c.SpecLineCount(1) == 0 {
		t.Fatal("epoch 1 bits should survive epoch 0 clear")
	}
}

func TestConditionalInvalidate(t *testing.T) {
	c := mk(t, 4, 2)
	aW := memtypes.Addr(0)                       // written speculatively
	aR := memtypes.Addr(memtypes.BlockBytes)     // only read speculatively
	aN := memtypes.Addr(2 * memtypes.BlockBytes) // untouched
	for _, a := range []memtypes.Addr{aW, aR, aN} {
		v := c.Victim(a, false)
		c.Install(v, a, memtypes.BlockData{}, Exclusive)
	}
	c.MarkSpecWritten(c.Peek(aW), 0)
	c.Peek(aW).State = Modified
	c.MarkSpecRead(c.Peek(aR), 0)
	n := c.ConditionalInvalidate(0)
	if n != 1 {
		t.Fatalf("invalidated %d lines, want 1", n)
	}
	if c.Peek(aW) != nil {
		t.Fatal("speculatively-written line survived abort")
	}
	if l := c.Peek(aR); l == nil || l.SpecRead(0) {
		t.Fatal("speculatively-read line must survive with bits cleared")
	}
	if c.Peek(aN) == nil {
		t.Fatal("untouched line lost")
	}
}

func TestInvalidateReturnsOldContents(t *testing.T) {
	c := mk(t, 4, 2)
	a := memtypes.Addr(0x40)
	v := c.Victim(a, false)
	var d memtypes.BlockData
	d[1] = 9
	c.Install(v, a, d, Modified)
	old, ok := c.Invalidate(a)
	if !ok || old.Data[1] != 9 || old.State != Modified {
		t.Fatalf("bad old contents: %+v ok=%v", old, ok)
	}
	if _, ok := c.Invalidate(a); ok {
		t.Fatal("double invalidate reported a line")
	}
}

// TestCacheVsReferenceModel is a property test: a random stream of installs,
// lookups, and invalidations against a map-based reference. Presence in the
// cache implies data equality with the reference; the reference may hold
// blocks the cache evicted.
func TestCacheVsReferenceModel(t *testing.T) {
	c := mk(t, 2, 2)
	ref := make(map[memtypes.Addr]memtypes.BlockData)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		a := memtypes.Addr(rng.Intn(256)) * memtypes.BlockBytes
		switch rng.Intn(3) {
		case 0: // install/update
			var d memtypes.BlockData
			d[0] = memtypes.Word(i)
			if l := c.Peek(a); l != nil {
				l.Data = d
			} else {
				v := c.Victim(a, true)
				if v.State.Valid() {
					delete(ref, v.Addr)
					c.Invalidate(v.Addr)
				}
				c.Install(v, a, d, Exclusive)
			}
			ref[a] = d
		case 1: // lookup
			l := c.Peek(a)
			if l != nil {
				want, ok := ref[a]
				if !ok {
					t.Fatalf("cache holds %#x the reference lost", uint64(a))
				}
				if l.Data != want {
					t.Fatalf("data mismatch at %#x", uint64(a))
				}
			}
		case 2: // invalidate
			c.Invalidate(a)
			delete(ref, a)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{SizeBytes: 1000, Ways: 2, Name: "odd"},    // not a whole set count
		{SizeBytes: 3 << 10, Ways: 2, Name: "np2"}, // sets not power of two
		{SizeBytes: 4 << 10, Ways: 0, Name: "w0"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", bad)
				}
			}()
			New(bad)
		}()
	}
}

func TestLineStateHelpers(t *testing.T) {
	if Invalid.Valid() || !Shared.Valid() {
		t.Fatal("Valid()")
	}
	if Shared.Writable() || !Exclusive.Writable() || !Modified.Writable() {
		t.Fatal("Writable()")
	}
	f := func(s uint8) bool {
		st := LineState(s % 4)
		return st.String() != ""
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLineSize pins the cache line at 88 bytes, with the speculative bits
// in two epoch bitmasks: a set is allocated whole, and a litmus L2 set of
// 8 ways is 704 bytes (the 704-byte size class), an L1 set of 2 ways 176.
func TestLineSize(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n > 88 {
		t.Fatalf("Line is %d bytes, want <= 88", n)
	}
}

// TestSpecMasksMatchBoolArrays checks the bitmask spec bits against a
// [MaxEpochs]bool reference over every pair of read and written masks: the
// per-epoch bits, the any-bit tests, OldestSpecEpoch, and each epoch's
// flash-clear.
func TestSpecMasksMatchBoolArrays(t *testing.T) {
	type ref struct{ read, written [MaxEpochs]bool }
	oldest := func(r ref) int {
		for e := 0; e < MaxEpochs; e++ {
			if r.read[e] || r.written[e] {
				return e
			}
		}
		return -1
	}
	check := func(l *Line, r ref, what string) {
		t.Helper()
		anyR, anyW := false, false
		for e := 0; e < MaxEpochs; e++ {
			if l.SpecRead(e) != r.read[e] || l.SpecWritten(e) != r.written[e] {
				t.Fatalf("%s: epoch %d read/written %v/%v, want %v/%v", what, e, l.SpecRead(e), l.SpecWritten(e), r.read[e], r.written[e])
			}
			anyR, anyW = anyR || r.read[e], anyW || r.written[e]
		}
		if l.SpecReadAny() != anyR || l.SpecWrittenAny() != anyW || l.SpecAny() != (anyR || anyW) {
			t.Fatalf("%s: any read/written/spec %v/%v/%v, want %v/%v/%v", what,
				l.SpecReadAny(), l.SpecWrittenAny(), l.SpecAny(), anyR, anyW, anyR || anyW)
		}
		if got, want := l.OldestSpecEpoch(), oldest(r); got != want {
			t.Fatalf("%s: oldest epoch %d, want %d", what, got, want)
		}
	}
	const all = 1<<MaxEpochs - 1
	for rm := 0; rm <= all; rm++ {
		for wm := 0; wm <= all; wm++ {
			var r ref
			for e := 0; e < MaxEpochs; e++ {
				r.read[e], r.written[e] = rm&(1<<e) != 0, wm&(1<<e) != 0
			}
			l := Line{specRead: uint8(rm), specWritten: uint8(wm)}
			check(&l, r, fmt.Sprintf("masks %04b/%04b", rm, wm))
			for e := 0; e < MaxEpochs; e++ {
				cl, cr := l, r
				cl.clearSpec(e)
				cr.read[e], cr.written[e] = false, false
				check(&cl, cr, fmt.Sprintf("masks %04b/%04b cleared epoch %d", rm, wm, e))
			}
		}
	}
}
