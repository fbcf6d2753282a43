package workload

import (
	"fmt"

	"invisifence/internal/consistency"
	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
)

// oltpParams distinguishes the two TPC-C proxies.
type oltpParams struct {
	name      string
	desc      string
	nAccounts int
	nLocks    int // fewer locks => hotter contention
	txPerThr  int
	logSlots  int // power of two
}

// OLTPOracle builds the TPC-C-on-Oracle proxy (Figure 7: 100 warehouses,
// 16 clients): account-transfer transactions under fine-grained two-lock
// locking with an append-only commit log behind an atomic tail counter.
func OLTPOracle(p Params) *Workload {
	return oltp(p, oltpParams{
		name:      "oltp-oracle",
		desc:      "OLTP: two-lock transfers, moderate contention, atomic log tail",
		nAccounts: 2048,
		nLocks:    64,
		txPerThr:  p.scale(14),
		logSlots:  1024,
	})
}

// OLTPDB2 builds the TPC-C-on-DB2 proxy (Figure 7: 100 warehouses, 64
// clients): the same transaction engine with a larger working set and
// hotter locks, reflecting the higher client count.
func OLTPDB2(p Params) *Workload {
	return oltp(p, oltpParams{
		name:      "oltp-db2",
		desc:      "OLTP: two-lock transfers, hot locks, larger footprint",
		nAccounts: 8192,
		nLocks:    24,
		txPerThr:  p.scale(16),
		logSlots:  1024,
	})
}

func oltp(p Params, op oltpParams) *Workload {
	fp := consistency.SyncFences(p.Model)
	l := newLayout()
	accounts := l.alloc(op.nAccounts * memtypes.BlockBytes) // one balance per block
	locks := l.alloc(op.nLocks * memtypes.BlockBytes)
	logTail := l.alloc(memtypes.BlockBytes)
	logArea := l.alloc(op.logSlots * 2 * memtypes.WordBytes)
	txData := make([]memtypes.Addr, p.Cores)
	for t := range txData {
		txData[t] = l.alloc(op.txPerThr * 4 * memtypes.WordBytes)
	}

	const initBal = 1000
	mem := make(map[memtypes.Addr]memtypes.Word)
	for a := 0; a < op.nAccounts; a++ {
		mem[blockOf(accounts, a)] = initBal
	}

	// Host-side transaction plans: per tx, two distinct accounts whose
	// locks are distinct and lock-ordered (deadlock freedom).
	rng := newRNG(p, 23)
	lockOf := func(acct int) int { return acct % op.nLocks }
	for t := 0; t < p.Cores; t++ {
		for i := 0; i < op.txPerThr; i++ {
			var a1, a2 int
			for {
				a1 = rng.Intn(op.nAccounts)
				a2 = rng.Intn(op.nAccounts)
				if a1 != a2 && lockOf(a1) != lockOf(a2) {
					break
				}
			}
			if lockOf(a1) > lockOf(a2) {
				a1, a2 = a2, a1
			}
			base := txData[t] + memtypes.Addr(w(i*4))
			mem[base+0*memtypes.WordBytes] = memtypes.Word(blockOf(locks, lockOf(a1)))
			mem[base+1*memtypes.WordBytes] = memtypes.Word(blockOf(locks, lockOf(a2)))
			mem[base+2*memtypes.WordBytes] = memtypes.Word(blockOf(accounts, a1))
			mem[base+3*memtypes.WordBytes] = memtypes.Word(blockOf(accounts, a2))
		}
	}

	logShift := int64(0)
	for 1<<logShift < op.logSlots {
		logShift++
	}

	progs := make([]*isa.Program, p.Cores)
	for t := 0; t < p.Cores; t++ {
		b := isa.NewBuilder(fmt.Sprintf("%s-t%d", op.name, t))
		b.MovI(isa.R20, int64(txData[t]))
		b.MovI(isa.R21, int64(logTail))
		b.MovI(isa.R22, int64(logArea))
		b.MovI(isa.R19, 1)
		b.MovI(isa.R2, 0)
		b.MovI(isa.R3, int64(op.txPerThr))

		b.Label("tx")
		// Load the transaction plan.
		b.ShlI(isa.R6, isa.R2, 5) // *32 bytes
		b.Add(isa.R6, isa.R20, isa.R6)
		b.Ld(isa.R12, isa.R6, w(0)) // lock A address
		b.Ld(isa.R13, isa.R6, w(1)) // lock B address
		b.Ld(isa.R14, isa.R6, w(2)) // account A address
		b.Ld(isa.R15, isa.R6, w(3)) // account B address
		// Acquire in lock order, transfer, release in reverse.
		b.SpinLockBackoff(isa.R12, 0, isa.R10, isa.R11, 12, fp)
		b.SpinLockBackoff(isa.R13, 0, isa.R10, isa.R11, 12, fp)
		b.Ld(isa.R7, isa.R14, 0)
		b.Ld(isa.R8, isa.R15, 0)
		b.AddI(isa.R7, isa.R7, -1)
		b.AddI(isa.R8, isa.R8, 1)
		b.St(isa.R14, 0, isa.R7)
		b.St(isa.R15, 0, isa.R8)
		b.SpinUnlock(isa.R13, 0, fp)
		b.SpinUnlock(isa.R12, 0, fp)
		// Commit record: atomic tail bump plus a two-word log entry.
		b.Fadd(isa.R9, isa.R21, 0, isa.R19)
		b.MovI(isa.R16, int64(op.logSlots-1))
		b.And(isa.R16, isa.R9, isa.R16)
		b.ShlI(isa.R16, isa.R16, 4) // *16 bytes per entry
		b.Add(isa.R16, isa.R22, isa.R16)
		b.St(isa.R16, 0, isa.R9)
		b.St(isa.R16, w(1), isa.R7)
		b.AddI(isa.R2, isa.R2, 1)
		b.Bltu(isa.R2, isa.R3, "tx")
		b.Halt()
		progs[t] = b.MustBuild()
	}

	cores := p.Cores
	totalTx := memtypes.Word(cores * op.txPerThr)
	return &Workload{
		Name:        op.name,
		Description: op.desc,
		Programs:    progs,
		RegInit:     regInit(cores),
		MemInit:     mem,
		Validate: func(read func(memtypes.Addr) memtypes.Word) error {
			var sum memtypes.Word
			for a := 0; a < op.nAccounts; a++ {
				sum += read(blockOf(accounts, a))
			}
			if want := memtypes.Word(op.nAccounts) * initBal; sum != want {
				return fmt.Errorf("%s: balance sum = %d, want %d (transfers not atomic)", op.name, sum, want)
			}
			if got := read(logTail); got != totalTx {
				return fmt.Errorf("%s: log tail = %d, want %d", op.name, got, totalTx)
			}
			for i := 0; i < op.nLocks; i++ {
				if got := read(blockOf(locks, i)); got != 0 {
					return fmt.Errorf("%s: lock %d left held", op.name, i)
				}
			}
			return nil
		},
	}
}
