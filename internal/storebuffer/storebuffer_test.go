package storebuffer

import (
	"math/rand"
	"testing"

	"invisifence/internal/memtypes"
)

// ------------------------------------------------------------------ FIFO

func TestFIFOOrderAndCapacity(t *testing.T) {
	f := NewFIFO(4)
	for i := 0; i < 4; i++ {
		if !f.Push(memtypes.Addr(i*8), memtypes.Word(i)) {
			t.Fatalf("push %d failed", i)
		}
	}
	if !f.Full() || f.Push(0x100, 1) {
		t.Fatal("push into full FIFO succeeded")
	}
	if f.FullStalls != 1 {
		t.Fatalf("FullStalls = %d", f.FullStalls)
	}
	for i := 0; i < 4; i++ {
		h := f.Head()
		if h == nil || h.Val != memtypes.Word(i) {
			t.Fatalf("head %d = %+v", i, h)
		}
		f.Pop()
	}
	if !f.Empty() {
		t.Fatal("not empty after draining")
	}
}

func TestFIFOForwardYoungest(t *testing.T) {
	f := NewFIFO(8)
	f.Push(0x40, 1)
	f.Push(0x48, 2)
	f.Push(0x40, 3) // newer store to same word
	if v, ok := f.Forward(0x40); !ok || v != 3 {
		t.Fatalf("forward = %d,%v want 3", v, ok)
	}
	if v, ok := f.Forward(0x48); !ok || v != 2 {
		t.Fatalf("forward = %d,%v want 2", v, ok)
	}
	if _, ok := f.Forward(0x50); ok {
		t.Fatal("forward hit for absent word")
	}
}

func TestFIFOPrefetchBlocks(t *testing.T) {
	f := NewFIFO(16)
	f.Push(0x00, 1) // block 0
	f.Push(0x08, 2) // block 0
	f.Push(0x40, 3) // block 1
	f.Push(0x80, 4) // block 2
	blocks := f.PrefetchBlocks(3)
	if len(blocks) != 2 || blocks[0] != 0 || blocks[1] != 0x40 {
		t.Fatalf("prefetch blocks = %v", blocks)
	}
}

func TestFIFOPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewFIFO(2).Pop()
}

// ------------------------------------------------------------ Coalescing

func TestCoalescingMergeSameEpoch(t *testing.T) {
	c := NewCoalescing(2)
	if !c.Store(0x40, 1, NonSpecEpoch) || !c.Store(0x48, 2, NonSpecEpoch) {
		t.Fatal("stores failed")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (merged)", c.Len())
	}
	e := c.Entries()[0]
	if !e.Valid[0] || !e.Valid[1] || e.Words[0] != 1 || e.Words[1] != 2 {
		t.Fatalf("bad entry %+v", e)
	}
}

func TestCoalescingNoCrossEpochMerge(t *testing.T) {
	c := NewCoalescing(4)
	c.Store(0x40, 1, NonSpecEpoch)
	c.Store(0x48, 2, 0) // speculative epoch 0: no coalescing (§3.1)
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	// A later store of the same epoch merges into the youngest entry only.
	c.Store(0x40, 3, 0)
	if c.Len() != 2 {
		t.Fatalf("len = %d after same-epoch merge, want 2", c.Len())
	}
	// A non-speculative store now cannot merge (the youngest entry for the
	// block is speculative): new entry.
	c.Store(0x40, 4, NonSpecEpoch)
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
}

func TestCoalescingForwardYoungest(t *testing.T) {
	c := NewCoalescing(4)
	c.Store(0x40, 1, NonSpecEpoch)
	c.Store(0x40, 9, 0) // younger speculative value
	if v, ok := c.Forward(0x40); !ok || v != 9 {
		t.Fatalf("forward = %d,%v want 9", v, ok)
	}
	if _, ok := c.Forward(0x48); ok {
		t.Fatal("hit for invalid word")
	}
}

func TestCoalescingCapacity(t *testing.T) {
	c := NewCoalescing(2)
	c.Store(0x000, 1, NonSpecEpoch)
	c.Store(0x040, 2, NonSpecEpoch)
	if c.Store(0x080, 3, NonSpecEpoch) {
		t.Fatal("store beyond capacity succeeded")
	}
	// Merging into an existing block still works when full.
	if !c.Store(0x008, 4, NonSpecEpoch) {
		t.Fatal("merge into existing entry failed when full")
	}
}

func TestCoalescingFlashInvalidateSpec(t *testing.T) {
	c := NewCoalescing(8)
	c.Store(0x000, 1, NonSpecEpoch)
	c.Store(0x040, 2, 0)
	c.Store(0x080, 3, 1)
	c.Store(0x0C0, 4, 0)
	if n := c.FlashInvalidateSpec(0); n != 2 {
		t.Fatalf("dropped %d, want 2", n)
	}
	if c.Len() != 2 || c.CountEpoch(NonSpecEpoch) != 1 || c.CountEpoch(1) != 1 {
		t.Fatalf("wrong survivors: len=%d", c.Len())
	}
}

// TestCoalescingEntriesAgeOrder pins the age order Entries keeps, which
// mergeTarget, Forward and IsOldestForBlock rely on: appends in store
// order, and removal or flash invalidation keeps the rest in order.
func TestCoalescingEntriesAgeOrder(t *testing.T) {
	c := NewCoalescing(8)
	c.Store(0x40, 1, NonSpecEpoch)
	c.Store(0x80, 2, NonSpecEpoch)
	c.Store(0x40, 3, 0)
	c.Store(0xC0, 4, 1)
	c.Store(0x40, 5, 1)
	es := c.Entries()
	want := []struct {
		block memtypes.Addr
		epoch int
		val   memtypes.Word
	}{{0x40, NonSpecEpoch, 1}, {0x80, NonSpecEpoch, 2}, {0x40, 0, 3}, {0xC0, 1, 4}, {0x40, 1, 5}}
	if len(es) != len(want) {
		t.Fatalf("entries = %d, want %d", len(es), len(want))
	}
	for i, w := range want {
		if es[i].Block != w.block || es[i].Epoch != w.epoch || es[i].Words[0] != w.val {
			t.Fatalf("entry %d = %#x/%d/%d, want %#x/%d/%d", i, es[i].Block, es[i].Epoch, es[i].Words[0], w.block, w.epoch, w.val)
		}
	}
	oldest := []bool{true, true, false, true, false}
	for i, e := range es {
		if c.IsOldestForBlock(e) != oldest[i] {
			t.Fatalf("IsOldestForBlock(entry %d) = %v, want %v", i, !oldest[i], oldest[i])
		}
	}
	// Dropping the oldest 0x40 entry makes the next one, in age order, the
	// oldest for its block; the younger one stays behind it.
	c.Remove(es[0])
	es = c.Entries()
	if es[1].Words[0] != 3 || !c.IsOldestForBlock(es[1]) || c.IsOldestForBlock(es[3]) {
		t.Fatal("removal broke the age order")
	}
	c.FlashInvalidateSpec(0)
	es = c.Entries()
	if len(es) != 3 || es[2].Words[0] != 5 || !c.IsOldestForBlock(es[2]) {
		t.Fatal("flash invalidation broke the age order")
	}
}

func TestCoalescingRemove(t *testing.T) {
	c := NewCoalescing(4)
	c.Store(0x40, 1, NonSpecEpoch)
	c.Store(0x80, 2, NonSpecEpoch)
	c.Remove(c.Entries()[0])
	if c.Len() != 1 || c.Entries()[0].Block != 0x80 {
		t.Fatal("wrong entry removed")
	}
}

// TestCoalescingForwardVsReference: random stores against a per-word
// reference map, checking forwarding always returns the newest value.
func TestCoalescingForwardVsReference(t *testing.T) {
	c := NewCoalescing(64)
	ref := make(map[memtypes.Addr]memtypes.Word)
	rng := rand.New(rand.NewSource(7))
	epoch := NonSpecEpoch
	for i := 0; i < 2000; i++ {
		a := memtypes.Addr(rng.Intn(16)*8 + rng.Intn(4)*64)
		v := memtypes.Word(i)
		if c.Store(a, v, epoch) {
			ref[memtypes.WordAlign(a)] = v
		}
		probe := memtypes.Addr(rng.Intn(16)*8 + rng.Intn(4)*64)
		got, ok := c.Forward(probe)
		want, wok := ref[memtypes.WordAlign(probe)]
		if ok != wok || (ok && got != want) {
			t.Fatalf("forward(%#x) = %d,%v want %d,%v", uint64(probe), got, ok, want, wok)
		}
	}
}

// TestCoalescingCanStorePredictsStore pins CanStore — the read-only merge
// rule the retirement classifier reads — to Store's return value on the
// same buffer state, and checks that asking changes nothing.
func TestCoalescingCanStorePredictsStore(t *testing.T) {
	const a, b = memtypes.Addr(0x1000), memtypes.Addr(0x2000)
	type st struct {
		block memtypes.Addr
		epoch int
	}
	cases := []struct {
		name  string
		cap   int
		setup []st
		store st
		want  bool
	}{
		{"empty", 1, nil, st{a, NonSpecEpoch}, true},
		{"same-epoch merge", 2, []st{{a, NonSpecEpoch}}, st{a, NonSpecEpoch}, true},
		{"same-epoch merge into full", 1, []st{{a, 0}}, st{a, 0}, true},
		{"cross-epoch, room for an entry", 2, []st{{a, 0}}, st{a, 1}, true},
		{"cross-epoch into full", 1, []st{{a, 0}}, st{a, 1}, false},
		{"non-spec after spec into full", 1, []st{{a, 0}}, st{a, NonSpecEpoch}, false},
		{"spec after non-spec into full", 1, []st{{a, NonSpecEpoch}}, st{a, 0}, false},
		{"other block into full", 1, []st{{b, NonSpecEpoch}}, st{a, NonSpecEpoch}, false},
		{"younger same-block entry blocks the older, full", 2, []st{{a, NonSpecEpoch}, {a, 0}}, st{a, NonSpecEpoch}, false},
		{"younger same-block entry blocks the older, room", 3, []st{{a, NonSpecEpoch}, {a, 0}}, st{a, NonSpecEpoch}, true},
		{"merge into the youngest of two, full", 2, []st{{a, NonSpecEpoch}, {a, 0}}, st{a, 0}, true},
	}
	for _, c := range cases {
		cb := NewCoalescing(c.cap)
		for i, s := range c.setup {
			if !cb.Store(s.block+memtypes.Addr(i*memtypes.WordBytes), 1, s.epoch) {
				t.Fatalf("%s: setup store %d refused", c.name, i)
			}
		}
		before := *cb
		got := cb.CanStore(c.store.block, c.store.epoch)
		if cb.Merges != before.Merges || cb.Allocs != before.Allocs || cb.FullStalls != before.FullStalls || cb.Len() != before.Len() {
			t.Errorf("%s: CanStore mutated the buffer", c.name)
		}
		if got != c.want {
			t.Errorf("%s: CanStore = %v, want %v", c.name, got, c.want)
		}
		if stored := cb.Store(c.store.block+memtypes.WordBytes, 2, c.store.epoch); stored != got {
			t.Errorf("%s: CanStore = %v but Store = %v", c.name, got, stored)
		}
	}
}
