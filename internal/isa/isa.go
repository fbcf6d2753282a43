// Package isa defines the small RISC instruction set the simulated cores
// execute, a program builder with labels and fixups, a disassembler, and a
// synchronization library (spinlocks, barriers) parameterized by the fence
// requirements of the target consistency model.
//
// The ISA stands in for the paper's UltraSPARC III ISA: what matters for
// memory-ordering studies is the mix of loads, stores, atomic
// read-modify-writes, and fences, which this ISA captures directly.
// All memory accesses are 8-byte, word-aligned.
package isa

import "fmt"

// Reg names one of the 32 general-purpose registers. R0 reads as zero and
// ignores writes.
type Reg uint8

// NumRegs is the architectural register count.
const NumRegs = 32

// Conventional register aliases used by the builder and workloads.
const (
	R0 Reg = iota // hardwired zero
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	R30
	R31
)

// Op is an instruction opcode.
type Op uint8

const (
	// Nop does nothing.
	Nop Op = iota
	// Halt stops the thread; the simulator treats a core whose program
	// halted as finished.
	Halt
	// MovI: rd = imm.
	MovI
	// Add: rd = rs1 + rs2.
	Add
	// AddI: rd = rs1 + imm (imm may be negative).
	AddI
	// Sub: rd = rs1 - rs2.
	Sub
	// Mul: rd = rs1 * rs2 (3-cycle latency).
	Mul
	// And: rd = rs1 & rs2.
	And
	// Or: rd = rs1 | rs2.
	Or
	// Xor: rd = rs1 ^ rs2.
	Xor
	// ShlI: rd = rs1 << imm.
	ShlI
	// ShrI: rd = rs1 >> imm (logical).
	ShrI
	// SltU: rd = 1 if rs1 < rs2 (unsigned) else 0.
	SltU
	// Seq: rd = 1 if rs1 == rs2 else 0.
	Seq
	// Delay occupies a functional unit for imm cycles; models a stretch of
	// computation without inflating the instruction stream.
	Delay
	// Ld: rd = mem[rs1 + imm].
	Ld
	// St: mem[rs1 + imm] = rs2.
	St
	// LdAcq: rd = mem[rs1 + imm], acquire semantics — under RC no later
	// access may appear to execute before it. Identical to Ld under
	// SC/TSO/RMO.
	LdAcq
	// StRel: mem[rs1 + imm] = rs2, release semantics — under RC no
	// earlier access may appear to execute after it. Identical to St
	// under SC/TSO/RMO.
	StRel
	// Cas: atomic compare-and-swap on mem[rs1 + imm]: rd = old;
	// if old == rs2 { mem = rs3 }.
	Cas
	// Fadd: atomic fetch-and-add on mem[rs1 + imm]: rd = old; mem = old + rs2.
	Fadd
	// Swap: atomic exchange on mem[rs1 + imm]: rd = old; mem = rs2.
	Swap
	// Fence is a full memory ordering fence (SPARC MEMBAR #Sync analogue).
	Fence
	// Br: unconditional branch to Target.
	Br
	// Beq: branch to Target if rs1 == rs2.
	Beq
	// Bne: branch to Target if rs1 != rs2.
	Bne
	// Bltu: branch to Target if rs1 < rs2 (unsigned).
	Bltu
	// Bgeu: branch to Target if rs1 >= rs2 (unsigned).
	Bgeu
)

var opNames = [...]string{
	Nop: "nop", Halt: "halt", MovI: "movi", Add: "add", AddI: "addi",
	Sub: "sub", Mul: "mul", And: "and", Or: "or", Xor: "xor",
	ShlI: "shli", ShrI: "shri", SltU: "sltu", Seq: "seq", Delay: "delay",
	Ld: "ld", St: "st", LdAcq: "ld.acq", StRel: "st.rel",
	Cas: "cas", Fadd: "fadd", Swap: "swap",
	Fence: "fence", Br: "br", Beq: "beq", Bne: "bne", Bltu: "bltu", Bgeu: "bgeu",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsBranch reports whether the op is a control transfer.
func (o Op) IsBranch() bool {
	switch o {
	case Br, Beq, Bne, Bltu, Bgeu:
		return true
	}
	return false
}

// IsCondBranch reports whether the op is a conditional control transfer.
func (o Op) IsCondBranch() bool {
	switch o {
	case Beq, Bne, Bltu, Bgeu:
		return true
	}
	return false
}

// IsLoad reports whether the op reads memory non-atomically.
func (o Op) IsLoad() bool { return o == Ld || o == LdAcq }

// IsStore reports whether the op writes memory non-atomically.
func (o Op) IsStore() bool { return o == St || o == StRel }

// IsAcquire reports whether the op carries acquire ordering (RC).
func (o Op) IsAcquire() bool { return o == LdAcq }

// IsRelease reports whether the op carries release ordering (RC).
func (o Op) IsRelease() bool { return o == StRel }

// IsAtomic reports whether the op is an atomic read-modify-write.
func (o Op) IsAtomic() bool { return o == Cas || o == Fadd || o == Swap }

// IsMem reports whether the op touches memory.
func (o Op) IsMem() bool { return o.IsLoad() || o.IsStore() || o.IsAtomic() }

// WritesRd reports whether the instruction produces a register result.
func (o Op) WritesRd() bool {
	switch o {
	case MovI, Add, AddI, Sub, Mul, And, Or, Xor, ShlI, ShrI, SltU, Seq, Ld, LdAcq, Cas, Fadd, Swap:
		return true
	}
	return false
}

// Latency returns the functional-unit latency for compute ops.
func (o Op) Latency(imm int64) uint64 {
	switch o {
	case Mul:
		return 3
	case Delay:
		if imm < 1 {
			return 1
		}
		return uint64(imm)
	default:
		return 1
	}
}

// Instr is one decoded instruction.
type Instr struct {
	Op     Op
	Rd     Reg
	Rs1    Reg // base register for memory ops
	Rs2    Reg // data register for St/Fadd/Swap; compare value for Cas
	Rs3    Reg // swap-in value for Cas
	Imm    int64
	Target int // resolved branch target (instruction index)
}

// String disassembles the instruction.
func (in Instr) String() string {
	switch {
	case in.Op == Nop || in.Op == Halt || in.Op == Fence:
		return in.Op.String()
	case in.Op == MovI:
		return fmt.Sprintf("movi r%d, %d", in.Rd, in.Imm)
	case in.Op == Delay:
		return fmt.Sprintf("delay %d", in.Imm)
	case in.Op == AddI || in.Op == ShlI || in.Op == ShrI:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case in.Op == Ld || in.Op == LdAcq:
		return fmt.Sprintf("%s r%d, [r%d+%d]", in.Op, in.Rd, in.Rs1, in.Imm)
	case in.Op == St || in.Op == StRel:
		return fmt.Sprintf("%s [r%d+%d], r%d", in.Op, in.Rs1, in.Imm, in.Rs2)
	case in.Op == Cas:
		return fmt.Sprintf("cas r%d, [r%d+%d], r%d -> r%d", in.Rd, in.Rs1, in.Imm, in.Rs2, in.Rs3)
	case in.Op == Fadd:
		return fmt.Sprintf("fadd r%d, [r%d+%d], r%d", in.Rd, in.Rs1, in.Imm, in.Rs2)
	case in.Op == Swap:
		return fmt.Sprintf("swap r%d, [r%d+%d], r%d", in.Rd, in.Rs1, in.Imm, in.Rs2)
	case in.Op == Br:
		return fmt.Sprintf("br %d", in.Target)
	case in.Op.IsCondBranch():
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rs1, in.Rs2, in.Target)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Rs1, in.Rs2)
	}
}

// Program is an assembled instruction sequence for one thread.
type Program struct {
	Name   string
	Instrs []Instr
	Labels map[string]int
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.Instrs) }

// Disassemble renders the whole program, one instruction per line.
func (p *Program) Disassemble() string {
	rev := make(map[int][]string)
	for name, pc := range p.Labels {
		rev[pc] = append(rev[pc], name)
	}
	out := ""
	for pc, in := range p.Instrs {
		for _, l := range rev[pc] {
			out += l + ":\n"
		}
		out += fmt.Sprintf("  %4d  %s\n", pc, in.String())
	}
	return out
}
