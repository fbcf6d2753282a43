package consistency

import (
	"testing"

	"invisifence/internal/isa"
)

// TestOrderingRelation pins the preserved-program-order table, the model
// strength order, and every Figure 2 requirement derived from it.
func TestOrderingRelation(t *testing.T) {
	// Snapshot over the five access classes, rows older and columns
	// younger in Classes order ('x' ordered, '.' relaxed).
	snapshot := map[Model][5]string{
		SC:  {"xxxxx", "xxxxx", "xxxxx", "xxxxx", "xxxxx"},
		TSO: {"xxxxx", ".xx.x", "xxxxx", "xxxxx", ".xx.x"},
		RMO: {".....", ".....", ".....", ".....", "....."},
		RC:  {"..x.x", "..x.x", "xxxxx", "xxxxx", "..x.x"},
	}
	wantOrdered := map[Model]int{SC: 25, TSO: 21, RMO: 0, RC: 16}
	for _, m := range Models {
		n := 0
		for i, older := range Classes[:5] {
			for j, younger := range Classes[:5] {
				got := Orders(m, older, younger)
				if want := snapshot[m][i][j] == 'x'; got != want {
					t.Errorf("%v: %v->%v ordered=%v, want %v", m, older, younger, got, want)
				}
				if got {
					n++
				}
			}
		}
		if n != wantOrdered[m] {
			t.Errorf("%v: %d/25 access pairs ordered, want %d", m, n, wantOrdered[m])
		}
		for _, c := range Classes {
			if !Orders(m, Fence, c) || !Orders(m, c, Fence) {
				t.Errorf("%v: fence not ordered against %v", m, c)
			}
		}
	}

	// Strength: a stronger model orders every pair a weaker one does.
	for _, p := range []struct{ strong, weak Model }{{SC, TSO}, {TSO, RMO}, {RC, RMO}} {
		for _, a := range Classes {
			for _, b := range Classes {
				if Orders(p.weak, a, b) && !Orders(p.strong, a, b) {
					t.Errorf("%v orders %v->%v but %v does not", p.weak, a, b, p.strong)
				}
			}
		}
	}

	// Figure 2: the conventional requirements at retirement, each a query
	// of what the model orders after an older store.
	fig2 := []struct {
		m                                   Model
		load, store, atomic, release, fence bool
		sb                                  SBOrganization
		fences                              isa.FencePolicy
	}{
		{SC, true, true, true, false, true, SBFIFOWord, isa.NoFences},
		{TSO, false, true, true, false, true, SBFIFOWord, isa.NoFences},
		{RMO, false, false, false, false, true, SBCoalescingBlock, isa.RMOFences},
		{RC, false, false, true, true, true, SBCoalescingBlock, isa.RCFences},
	}
	for _, w := range fig2 {
		m := w.m
		if got := Orders(m, Store, Load); got != w.load {
			t.Errorf("%v: load drains SB = %v, want %v", m, got, w.load)
		}
		if got := Orders(m, Store, Store); got != w.store {
			t.Errorf("%v: stores ordered = %v, want %v", m, got, w.store)
		}
		if got := Orders(m, Store, Atomic); got != w.atomic {
			t.Errorf("%v: atomic drains SB = %v, want %v", m, got, w.atomic)
		}
		if got := Orders(m, Store, RelStore) && !Orders(m, Store, Store); got != w.release {
			t.Errorf("%v: st.rel drains SB = %v, want %v", m, got, w.release)
		}
		if got := Orders(m, Store, Fence); got != w.fence {
			t.Errorf("%v: fence drains SB = %v, want %v", m, got, w.fence)
		}
		if got := ConventionalSB(m); got != w.sb {
			t.Errorf("%v: SB organization %v, want %v", m, got, w.sb)
		}
		if got := SyncFences(m); got != w.fences {
			t.Errorf("%v: sync fences %+v, want %+v", m, got, w.fences)
		}
	}
}

func TestModelsOrderAndStrings(t *testing.T) {
	if len(Models) != 4 || Models[0] != SC || Models[1] != TSO || Models[2] != RMO || Models[3] != RC {
		t.Fatal("Models order changed")
	}
	for _, m := range Models {
		if m.String() == "" || Relaxations(m) == "" {
			t.Fatalf("bad model %v", m)
		}
	}
	seen := map[string]bool{}
	for i, c := range Classes {
		if int(c) != i || seen[c.String()] {
			t.Fatalf("bad class %v at %d", c, i)
		}
		seen[c.String()] = true
	}
	if SBFIFOWord.String() == SBCoalescingBlock.String() {
		t.Fatal("SB organization strings collide")
	}
}

func TestClassOf(t *testing.T) {
	want := map[isa.Op]Class{
		isa.Ld: Load, isa.LdAcq: AcqLoad, isa.St: Store, isa.StRel: RelStore,
		isa.Cas: Atomic, isa.Fadd: Atomic, isa.Swap: Atomic, isa.Fence: Fence,
	}
	for op, c := range want {
		if got := ClassOf(op); got != c {
			t.Errorf("ClassOf(%v) = %v, want %v", op, got, c)
		}
		if c.Writes() != (op.IsStore() || op.IsAtomic()) {
			t.Errorf("%v: Writes disagrees with %v", c, op)
		}
	}
}

func TestUnknownModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Orders(Model(99), Load, Load)
}
