package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderLabelsAndBranches(t *testing.T) {
	b := NewBuilder("t")
	b.MovI(R1, 5)
	b.Label("top")
	b.AddI(R1, R1, -1)
	b.Bne(R1, R0, "top")
	b.Halt()
	p := b.MustBuild()
	if p.Len() != 4 {
		t.Fatalf("len = %d", p.Len())
	}
	if p.Instrs[2].Target != 1 {
		t.Fatalf("branch target = %d, want 1", p.Instrs[2].Target)
	}
}

func TestBuilderUnresolvedLabel(t *testing.T) {
	b := NewBuilder("t")
	b.Br("nowhere")
	if _, err := b.Build(); err == nil {
		t.Fatal("expected unresolved-label error")
	}
}

func TestBuilderDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b := NewBuilder("t")
	b.Label("x")
	b.Label("x")
}

func TestFreshLabelsUnique(t *testing.T) {
	b := NewBuilder("t")
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		l := b.FreshLabel("spin")
		if seen[l] {
			t.Fatalf("duplicate fresh label %q", l)
		}
		seen[l] = true
	}
}

func TestOpClassifiers(t *testing.T) {
	cases := []struct {
		op                          Op
		load, store, atomic, branch bool
	}{
		{Ld, true, false, false, false},
		{St, false, true, false, false},
		{LdAcq, true, false, false, false},
		{StRel, false, true, false, false},
		{Cas, false, false, true, false},
		{Fadd, false, false, true, false},
		{Swap, false, false, true, false},
		{Beq, false, false, false, true},
		{Br, false, false, false, true},
		{Add, false, false, false, false},
		{Fence, false, false, false, false},
	}
	for _, c := range cases {
		if c.op.IsLoad() != c.load || c.op.IsStore() != c.store ||
			c.op.IsAtomic() != c.atomic || c.op.IsBranch() != c.branch {
			t.Errorf("%v misclassified", c.op)
		}
	}
	if !Ld.IsMem() || !Cas.IsMem() || Fence.IsMem() {
		t.Fatal("IsMem wrong")
	}
	if !LdAcq.IsAcquire() || !StRel.IsRelease() || Ld.IsAcquire() || St.IsRelease() || Fence.IsAcquire() {
		t.Fatal("acquire/release annotations wrong")
	}
}

func TestDisassembleRoundtripMentions(t *testing.T) {
	b := NewBuilder("t")
	b.MovI(R3, 42)
	b.Ld(R4, R3, 16)
	b.St(R3, 8, R4)
	b.Cas(R5, R3, 0, R0, R4)
	b.Fadd(R6, R3, 0, R4)
	b.LdAcq(R7, R3, 24)
	b.StRel(R3, 32, R7)
	b.Fence()
	b.Label("end")
	b.Br("end")
	b.Halt()
	p := b.MustBuild()
	d := p.Disassemble()
	for _, frag := range []string{"movi r3, 42", "ld r4, [r3+16]", "st [r3+8], r4", "cas", "fadd",
		"ld.acq r7, [r3+24]", "st.rel [r3+32], r7", "fence", "halt", "end:"} {
		if !strings.Contains(d, frag) {
			t.Errorf("disassembly missing %q:\n%s", frag, d)
		}
	}
}

func TestOpStringTotal(t *testing.T) {
	f := func(x uint8) bool { return Op(x%30).String() != "" }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatency(t *testing.T) {
	if Mul.Latency(0) != 3 || Add.Latency(0) != 1 {
		t.Fatal("latency wrong")
	}
	if Delay.Latency(17) != 17 || Delay.Latency(0) != 1 {
		t.Fatal("delay latency wrong")
	}
}

func TestSyncEmittersFencePolicy(t *testing.T) {
	count := func(fp FencePolicy) int {
		b := NewBuilder("t")
		b.SpinLock(R1, 0, R10, R11, fp)
		b.SpinUnlock(R1, 0, fp)
		b.Barrier(R2, 0, R28, R10, R11, 4, fp)
		b.Halt()
		p := b.MustBuild()
		n := 0
		for _, in := range p.Instrs {
			if in.Op == Fence {
				n++
			}
		}
		return n
	}
	if n := count(NoFences); n != 0 {
		t.Fatalf("SC/TSO policy emitted %d fences", n)
	}
	if n := count(RMOFences); n == 0 {
		t.Fatal("RMO policy emitted no fences")
	}
	if n := count(RCFences); n != 0 {
		t.Fatalf("RC policy emitted %d standalone fences, want 0", n)
	}
}

// TestSyncEmittersRCAnnotations pins the RC specialization: the lock and
// barrier macros carry ordering on annotated accesses, not fences — the
// unlock store and sense publish are st.rel, the spin loads are ld.acq.
func TestSyncEmittersRCAnnotations(t *testing.T) {
	ops := func(fp FencePolicy) (acq, rel int) {
		b := NewBuilder("t")
		b.SpinLock(R1, 0, R10, R11, fp)
		b.SpinUnlock(R1, 0, fp)
		b.Barrier(R2, 0, R28, R10, R11, 4, fp)
		b.Halt()
		for _, in := range b.MustBuild().Instrs {
			switch in.Op {
			case LdAcq:
				acq++
			case StRel:
				rel++
			}
		}
		return
	}
	acq, rel := ops(RCFences)
	// ld.acq: lock test load + barrier sense spin; st.rel: unlock store +
	// barrier sense publish.
	if acq != 2 || rel != 2 {
		t.Fatalf("RC policy emitted %d ld.acq / %d st.rel, want 2/2", acq, rel)
	}
	if acq, rel := ops(NoFences); acq != 0 || rel != 0 {
		t.Fatalf("plain policy emitted annotated accesses: %d/%d", acq, rel)
	}
	if !RCFences.Synchronizes() || NoFences.Synchronizes() || !RMOFences.Synchronizes() {
		t.Fatal("Synchronizes wrong")
	}
}
