package network

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// TestJitterDrawsMatchMathRand pins the shared draws to the generator they
// replace: every value a network's cursor yields, through the shared prefix
// and on into its private tail, equals the same position of
// rand.New(rand.NewSource(seed)).Int63n(bound), and networks on one seed
// built on several goroutines agree (run under -race in CI).
func TestJitterDrawsMatchMathRand(t *testing.T) {
	t.Run("sequence", func(t *testing.T) {
		for _, bound := range []int64{1, 2, 9, 17, 1<<33 + 1} {
			for seed := int64(0); seed < 64; seed++ {
				ref := rand.New(rand.NewSource(seed))
				d := jitterDraws{seed: seed, bound: bound}
				for i := 0; i < jitterPrefix+64; i++ {
					if got, want := d.draw(), ref.Int63n(bound); got != want {
						t.Fatalf("seed %d bound %d: draw %d = %d, want %d", seed, bound, i, got, want)
					}
				}
			}
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		// A seed no other test uses, so the goroutines race to build its
		// memo entry; each network reads past the prefix into its tail.
		cfg := Config{Width: 2, Height: 2, HopLatency: 3, Jitter: 16, Seed: 1<<40 + 7}
		const sends = jitterPrefix + 40
		run := func() []uint64 {
			n := New(cfg)
			n.Tick(1)
			for i := 0; i < sends; i++ {
				n.Send(NodeID(i%4), NodeID((i+1)%4), pl(i))
			}
			n.Tick(1 << 20)
			arrive := make([]uint64, sends)
			for d := 0; d < n.Nodes(); d++ {
				for m := n.Recv(NodeID(d)); m != nil; m = n.Recv(NodeID(d)) {
					arrive[payloadTag(m)] = m.arrive
				}
			}
			return arrive
		}
		const workers = 4
		got := make([][]uint64, workers)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[w] = run()
			}()
		}
		wg.Wait()
		want := run()
		for w := range got {
			for i := range want {
				if got[w][i] != want[i] {
					t.Fatalf("worker %d: message %d arrives at %d, serial run at %d", w, i, got[w][i], want[i])
				}
			}
		}
	})
}

// TestDrawMemoBounded pins the memo's memory bound: however many (seed,
// bound) sequences a process draws, the memo's drawSlots slots hold at most
// that many, about 2.1 MB, and a sequence evicted by a colliding key draws
// exactly again when it is rebuilt.
func TestDrawMemoBounded(t *testing.T) {
	const maxBytes = 2200 << 10
	if size := drawSlots * unsafe.Sizeof(drawSeq{}); size > maxBytes {
		t.Fatalf("memo bound %d bytes, want <= %d", size, maxBytes)
	}
	const bound = 5
	for seed := int64(0); seed < 4*drawSlots; seed++ {
		sharedDraws(seed, bound)
	}
	for seed := int64(0); seed < 4*drawSlots; seed += 97 {
		ref := rand.New(rand.NewSource(seed))
		d := sharedDraws(seed, bound)
		for i, v := range d.v {
			if want := ref.Int63n(bound); v != want {
				t.Fatalf("seed %d: rebuilt draw %d = %d, want %d", seed, i, v, want)
			}
		}
	}
}
