// Package consistency encodes the four memory consistency models the
// simulator implements (§2) as one preserved-program-order relation over
// access classes, in the style of Alglave et al.'s "Don't sit on the
// fence". Everything model-dependent is read from that relation: the
// Figure 2 conventional implementation requirements (what each model
// demands at the retirement of loads, stores, atomics, and fences), the
// store buffer organization, the sync library's fence policy, and the
// static fence analysis' reorderable pairs.
package consistency

import (
	"fmt"

	"invisifence/internal/isa"
)

// Model is a memory consistency model.
type Model uint8

const (
	// SC is sequential consistency (e.g., MIPS).
	SC Model = iota
	// TSO is total store order / processor consistency (SPARC TSO, x86):
	// relaxes store-to-load ordering only.
	TSO
	// RMO is relaxed memory order (SPARC RMO, PowerPC, ARM, Alpha): all
	// ordering relaxed except at explicit fences.
	RMO
	// RC is release consistency (Gharachorloo et al.): plain accesses
	// reorder freely, but an acquiring load orders before every later
	// access and a releasing store orders after every earlier access.
	// Ordering is carried by the annotated accesses themselves (ld.acq /
	// st.rel), not by standalone fences.
	RC
)

// Models lists all models in presentation order.
var Models = []Model{SC, TSO, RMO, RC}

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case SC:
		return "sc"
	case TSO:
		return "tso"
	case RMO:
		return "rmo"
	case RC:
		return "rc"
	}
	return fmt.Sprintf("Model(%d)", uint8(m))
}

// Class is the ordering class of a memory access or fence.
type Class uint8

const (
	// Load is a non-atomic plain read.
	Load Class = iota
	// Store is a non-atomic plain write.
	Store
	// Atomic is a read-modify-write; it behaves as both a read and a
	// write for conflict and reordering purposes.
	Atomic
	// AcqLoad is a load-acquire (ld.acq): a read that, under RC, orders
	// itself before every later access. Under every other model it is a
	// plain load — the machine ignores the annotation.
	AcqLoad
	// RelStore is a store-release (st.rel): a write that, under RC,
	// orders every earlier access before itself. Under every other model
	// it is a plain store.
	RelStore
	// Fence is a full fence, ordered against every class under every
	// model.
	Fence
	numClasses
)

// Classes lists all classes in table order.
var Classes = []Class{Load, Store, Atomic, AcqLoad, RelStore, Fence}

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Load:
		return "ld"
	case Store:
		return "st"
	case Atomic:
		return "at"
	case AcqLoad:
		return "ld.acq"
	case RelStore:
		return "st.rel"
	case Fence:
		return "fence"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Writes reports whether an access of the class mutates memory.
func (c Class) Writes() bool { return c == Store || c == RelStore || c == Atomic }

// ClassOf returns the ordering class of a memory or fence op. It runs at
// every load and store retirement, so it stays small enough to inline.
func ClassOf(op isa.Op) Class {
	switch op {
	case isa.Ld:
		return Load
	case isa.St:
		return Store
	case isa.LdAcq:
		return AcqLoad
	case isa.StRel:
		return RelStore
	case isa.Cas, isa.Fadd, isa.Swap:
		return Atomic
	case isa.Fence:
		return Fence
	}
	panic("consistency: op is not a memory access")
}

// The relation's two entries.
const (
	ord = true  // the model keeps the pair in program order
	rlx = false // the model may make the younger access visible first
)

// models is the relation, one row per model. ppo[older][younger] reports
// whether the model keeps an access of class older visible before a
// program-order-later access of class younger to a different address.
// Same-address pairs are always ordered (per-location coherence) and are
// not the table's business.
//
// InvisiFence and ASO configurations use their base model's row:
// speculation must be invisible, so it changes how an ordering is
// enforced, never which orderings the model requires.
var models = [...]struct {
	relaxations string // the Figure 2 definition column
	ppo         [numClasses][numClasses]bool
}{
	SC: {"none", [numClasses][numClasses]bool{
		//        ld   st   at   ld.acq st.rel fence
		Load:     {ord, ord, ord, ord, ord, ord},
		Store:    {ord, ord, ord, ord, ord, ord},
		Atomic:   {ord, ord, ord, ord, ord, ord},
		AcqLoad:  {ord, ord, ord, ord, ord, ord},
		RelStore: {ord, ord, ord, ord, ord, ord},
		Fence:    {ord, ord, ord, ord, ord, ord},
	}},
	// TSO's FIFO store buffer lets a load pass earlier stores; atomics
	// drain it. The annotations are ignored.
	TSO: {"store-to-load", [numClasses][numClasses]bool{
		Load:     {ord, ord, ord, ord, ord, ord},
		Store:    {rlx, ord, ord, rlx, ord, ord},
		Atomic:   {ord, ord, ord, ord, ord, ord},
		AcqLoad:  {ord, ord, ord, ord, ord, ord},
		RelStore: {rlx, ord, ord, rlx, ord, ord},
		Fence:    {ord, ord, ord, ord, ord, ord},
	}},
	// RMO orders only at fences; atomics carry no implicit order and the
	// annotations are ignored.
	RMO: {"all", [numClasses][numClasses]bool{
		Load:     {rlx, rlx, rlx, rlx, rlx, ord},
		Store:    {rlx, rlx, rlx, rlx, rlx, ord},
		Atomic:   {rlx, rlx, rlx, rlx, rlx, ord},
		AcqLoad:  {rlx, rlx, rlx, rlx, rlx, ord},
		RelStore: {rlx, rlx, rlx, rlx, rlx, ord},
		Fence:    {ord, ord, ord, ord, ord, ord},
	}},
	// RC: an ld.acq orders itself before everything later, an st.rel
	// orders everything earlier before itself, and atomics are RCsc
	// synchronization accesses carrying both edges.
	RC: {"all except acquire/release edges", [numClasses][numClasses]bool{
		Load:     {rlx, rlx, ord, rlx, ord, ord},
		Store:    {rlx, rlx, ord, rlx, ord, ord},
		Atomic:   {ord, ord, ord, ord, ord, ord},
		AcqLoad:  {ord, ord, ord, ord, ord, ord},
		RelStore: {rlx, rlx, ord, rlx, ord, ord},
		Fence:    {ord, ord, ord, ord, ord, ord},
	}},
}

// Orders reports whether model m keeps an older access of one class
// visible before a younger access of another to a different address. It
// sits on the simulator's per-retirement path: a constant-size array
// index.
func Orders(m Model, older, younger Class) bool {
	return models[m].ppo[older][younger]
}

// Relaxations describes the orderings a model relaxes (Figure 2).
func Relaxations(m Model) string { return models[m].relaxations }

// SBOrganization is the store buffer organization of Figure 2.
type SBOrganization uint8

const (
	// SBFIFOWord is the word-granularity FIFO store buffer (SC, TSO).
	SBFIFOWord SBOrganization = iota
	// SBCoalescingBlock is the block-granularity unordered coalescing
	// store buffer (RMO, RC, and every InvisiFence variant).
	SBCoalescingBlock
)

// String implements fmt.Stringer.
func (o SBOrganization) String() string {
	if o == SBFIFOWord {
		return "FIFO/word"
	}
	return "coalescing/block"
}

// ConventionalSB is the store buffer a conventional implementation of m
// uses: a FIFO exactly when the model keeps stores in program order.
func ConventionalSB(m Model) SBOrganization {
	if Orders(m, Store, Store) {
		return SBFIFOWord
	}
	return SBCoalescingBlock
}

// SyncFences is the fence policy a correct synchronization library uses
// under m: nothing where plain stores stay ordered (the lock's atomics
// order the rest), acquire/release annotations where a st.rel is ordered
// but a plain store is not, and full fences otherwise.
func SyncFences(m Model) isa.FencePolicy {
	switch {
	case Orders(m, Store, Store):
		return isa.NoFences
	case Orders(m, Store, RelStore):
		return isa.RCFences
	}
	return isa.RMOFences
}
