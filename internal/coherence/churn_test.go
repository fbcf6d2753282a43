package coherence_test

import (
	"regexp"
	"testing"

	"invisifence/internal/memctrl"
	"invisifence/internal/memtypes"

	. "invisifence/internal/coherence"
)

// countPort counts sends without delivering them; the churn test drives the
// directory directly and only cares about its internal state.
type countPort struct{ sent int }

func (p *countPort) Send(src, dst memtypes.NodeID, m Msg) { p.sent++ }

// churnRound acquires and releases one block's directory entry: GetS brings
// it Invalid->Owned (via a DataE grant), a dirty PutX returns it to the zero
// coherence state, which releases the pooled entry.
func churnRound(d *Directory, now *uint64, block memtypes.Addr) {
	*now++
	d.Handle(*now, 1, &Msg{Kind: GetS, Addr: block})
	*now += 4 // past the 1-cycle memory access
	d.Tick(*now)
	*now++
	d.Handle(*now, 1, &Msg{Kind: PutX, Addr: block, Dirty: true, HasData: true})
	*now++
	d.Tick(*now)
}

// TestDirectoryChurnAllocFree pins the pooled directory's contract: repeated
// acquire/release of the same block reuses one entry (wait-queue capacity
// included) with zero steady-state heap allocations, and the debug surfaces
// stay deterministic across reuse.
func TestDirectoryChurnAllocFree(t *testing.T) {
	mem := memctrl.New(memctrl.Config{AccessLatency: 1, Banks: 1, BankBusy: 0})
	port := &countPort{}
	d := NewDirectory(0, 4, mem, port)
	const block = memtypes.Addr(0x40)
	now := uint64(0)

	// Warm-up: allocate the entry chunk, table, and active list once; also
	// exercise the wait queue so its backing array reaches capacity (a PutX
	// queued behind the in-flight GetS; the queue drains without needing a
	// cache controller on the other end).
	now++
	d.Handle(now, 1, &Msg{Kind: GetS, Addr: block})
	d.Handle(now, 1, &Msg{Kind: PutX, Addr: block, Dirty: true, HasData: true}) // queues
	mid := d.DebugString()
	if mid == "" {
		t.Fatal("expected in-flight transaction state in DebugString")
	}
	now += 4
	d.Tick(now) // GetS finishes (Owned by 1); the queued PutX returns it to Invalid
	now++
	d.Tick(now)
	for i := 0; i < 8; i++ {
		churnRound(d, &now, block)
	}
	if got := d.StateOf(block); got != "I" {
		t.Fatalf("block not back to Invalid after churn: %s", got)
	}

	// DebugString after a full round must be identical (empty) every time,
	// and the queue/transaction accounting stable.
	ref := d.DebugString()
	if ref != "" {
		t.Fatalf("idle directory has debug state: %q", ref)
	}
	if d.PendingTransactions() != 0 {
		t.Fatal("pending transactions on idle directory")
	}

	avg := testing.AllocsPerRun(50, func() {
		churnRound(d, &now, block)
		if s := d.DebugString(); s != ref {
			t.Fatalf("DebugString drifted across entry reuse: %q != %q", s, ref)
		}
	})
	if avg != 0 {
		t.Fatalf("entry churn allocates: %.2f allocs/round (free-list reuse broken)", avg)
	}

	// A post-churn transaction's debug output must match a fresh one's shape
	// exactly: kick off the same GetS-plus-queued-PutX and compare against
	// the warm-up's mid-flight dump (same block, requestor, phase, queue).
	now++
	d.Handle(now, 1, &Msg{Kind: GetS, Addr: block})
	d.Handle(now, 1, &Msg{Kind: PutX, Addr: block, Dirty: true, HasData: true})
	// memReady is an absolute cycle and legitimately differs; everything
	// else must be byte-identical.
	noTime := regexp.MustCompile(`memReady=\d+`)
	got := noTime.ReplaceAllString(d.DebugString(), "memReady=?")
	want := noTime.ReplaceAllString(mid, "memReady=?")
	if got != want {
		t.Fatalf("mid-flight DebugString not reproducible after churn:\nfresh: %q\nafter: %q", want, got)
	}
}
