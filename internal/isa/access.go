package isa

// MemAccess is one statically-extracted memory access of a straight-line
// program: the instruction's PC, opcode, and its base-register + immediate
// addressing pair. It is the raw material of the static fence-inference
// analysis (internal/staticfence), which classifies accesses by base
// register (shared-variable area vs. private result area) without running
// the program.
type MemAccess struct {
	PC   int
	Op   Op
	Base Reg
	Off  int64
}

// MemAccesses extracts every memory access of a program in program order.
// The extraction is purely syntactic: an access's address is summarized as
// (base register, immediate offset), which is exact for the litmus protocol
// (bases are set once in the harness prefix and never rewritten) but says
// nothing about programs that compute addresses.
func MemAccesses(p *Program) []MemAccess {
	var out []MemAccess
	for pc, in := range p.Instrs {
		if !in.Op.IsMem() {
			continue
		}
		out = append(out, MemAccess{PC: pc, Op: in.Op, Base: in.Rs1, Off: in.Imm})
	}
	return out
}

// HasBranch reports whether the program contains any control transfer.
// Static event-graph construction requires straight-line bodies: with
// branches, program order over executed accesses is not the instruction
// order, and the analysis must refuse rather than guess.
func HasBranch(p *Program) bool {
	for _, in := range p.Instrs {
		if in.Op.IsBranch() {
			return true
		}
	}
	return false
}

// FenceBetween reports whether a Fence instruction sits strictly between
// PCs a and b (a < fence < b would be wrong: a fence *at* b's PC, i.e.
// immediately before b in the inserted-fence sense, separates the pair too,
// but instruction-stream fences occupy their own PC, so the test is simply
// a < pc < b over the original stream).
func FenceBetween(p *Program, a, b int) bool {
	if a > b {
		a, b = b, a
	}
	for pc := a + 1; pc < b; pc++ {
		if p.Instrs[pc].Op == Fence {
			return true
		}
	}
	return false
}
