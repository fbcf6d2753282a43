package workload

import (
	"fmt"

	"invisifence/internal/consistency"
	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
)

// serverParams distinguishes the two web-server proxies.
type serverParams struct {
	name        string
	desc        string
	lockFreePop bool // zeus pops queues with fetch-add; apache locks them
	noGlobal    bool // zeus skips the global hit counter (event-driven stats)
	totalReqs   int  // must be a multiple of nQueues
	nQueues     int  // power of two; thread t serves queue t % nQueues
	nDocs       int  // power of two
	docWords    int  // power of two
	nSessions   int  // power of two; migratory shared counters
	nStats      int  // power of two
}

// Apache builds the Apache proxy (Figure 7: "16K connections, fastCGI,
// worker threading model"): worker threads pop lock-protected connection
// queues, stream a shared document interleaved with response-buffer writes,
// bump a migratory per-session counter, and update fine-grained locked
// statistics plus a global atomic hit counter.
func Apache(p Params) *Workload {
	return server(p, serverParams{
		name:      "apache",
		desc:      "web server: locked work queues, shared docs, session + stats sharing",
		totalReqs: p.scale(256),
		nQueues:   8,
		nDocs:     32,
		docWords:  64,
		nSessions: 64,
		nStats:    16,
	})
}

// Zeus builds the Zeus proxy (Figure 7: "16K connections, fastCGI"): an
// event-driven server with lock-free (fetch-add) accept queues, larger
// document reads, and hotter statistics (fewer locks, more contention).
func Zeus(p Params) *Workload {
	return server(p, serverParams{
		name:        "zeus",
		desc:        "web server: lock-free queue pops, hot shared stats",
		lockFreePop: true,
		noGlobal:    true,
		totalReqs:   p.scale(320),
		nQueues:     8,
		nDocs:       32,
		docWords:    64,
		nSessions:   32,
		nStats:      8,
	})
}

func server(p Params, sp serverParams) *Workload {
	fp := consistency.SyncFences(p.Model)
	l := newLayout()
	qlocks := l.alloc(sp.nQueues * memtypes.BlockBytes)
	qheads := l.alloc(sp.nQueues * memtypes.BlockBytes)
	global := l.alloc(memtypes.BlockBytes)
	docs := l.alloc(sp.nDocs * sp.docWords * memtypes.WordBytes)
	sessions := l.alloc(sp.nSessions * memtypes.BlockBytes)
	stats := l.alloc(sp.nStats * memtypes.BlockBytes) // lock + counters per block

	// Every queue needs at least one serving thread.
	if sp.nQueues > p.Cores {
		sp.nQueues = p.Cores
	}
	// Round the request count up to a whole number per queue.
	if rem := sp.totalReqs % sp.nQueues; rem != 0 {
		sp.totalReqs += sp.nQueues - rem
	}
	perQueue := sp.totalReqs / sp.nQueues
	// Shared response pool: request r builds its response at pool[r].
	// First-touch remote store misses here are what make SC's
	// load-behind-store-miss drains expensive (Figure 1).
	pool := l.alloc(sp.totalReqs * sp.docWords * memtypes.WordBytes)

	mem := make(map[memtypes.Addr]memtypes.Word)
	rng := newRNG(p, 11)
	for i := 0; i < sp.nDocs*sp.docWords; i++ {
		mem[docs+memtypes.Addr(w(i))] = memtypes.Word(rng.Int63n(1 << 20))
	}

	docShift := shiftFor(sp.docWords*memtypes.WordBytes, "doc bytes")

	progs := make([]*isa.Program, p.Cores)
	for t := 0; t < p.Cores; t++ {
		q := t % sp.nQueues
		b := isa.NewBuilder(fmt.Sprintf("%s-t%d", sp.name, t))
		b.MovI(isa.R20, int64(blockOf(qlocks, q)))
		b.MovI(isa.R21, int64(blockOf(qheads, q)))
		b.MovI(isa.R22, int64(docs))
		b.MovI(isa.R23, int64(pool))
		b.MovI(isa.R24, int64(stats))
		b.MovI(isa.R25, int64(global))
		b.MovI(isa.R26, int64(sessions))
		b.MovI(isa.R19, 1)

		b.Label("loop")
		if sp.lockFreePop {
			b.Fadd(isa.R6, isa.R21, 0, isa.R19) // r6 = queue-local index
		} else {
			b.SpinLockBackoff(isa.R20, 0, isa.R10, isa.R11, 32, fp)
			b.Ld(isa.R6, isa.R21, 0)
			b.AddI(isa.R7, isa.R6, 1)
			b.St(isa.R21, 0, isa.R7)
			b.SpinUnlock(isa.R20, 0, fp)
		}
		b.MovI(isa.R8, int64(perQueue))
		b.Bgeu(isa.R6, isa.R8, "done")
		// Global request id: qlocal * nQueues + q (spreads docs/sessions).
		b.MovI(isa.R7, int64(sp.nQueues))
		b.Mul(isa.R6, isa.R6, isa.R7)
		b.AddI(isa.R6, isa.R6, int64(q))

		// Process: stream the document interleaved with response writes
		// into the shared pool (loads retiring behind outstanding store
		// misses: the SC pattern).
		b.MovI(isa.R9, int64(sp.nDocs-1))
		b.And(isa.R9, isa.R6, isa.R9)
		b.ShlI(isa.R9, isa.R9, docShift)
		b.Add(isa.R9, isa.R22, isa.R9) // doc base
		b.ShlI(isa.R7, isa.R6, docShift)
		b.Add(isa.R7, isa.R23, isa.R7) // response slot base (pool[r])
		b.MovI(isa.R12, 0)             // word index
		b.MovI(isa.R13, int64(sp.docWords))
		b.MovI(isa.R14, 0) // checksum
		b.Label("proc")
		b.ShlI(isa.R15, isa.R12, 3)
		b.Add(isa.R16, isa.R9, isa.R15)
		b.Ld(isa.R17, isa.R16, 0) // read doc word
		b.Add(isa.R14, isa.R14, isa.R17)
		b.Add(isa.R16, isa.R7, isa.R15)
		b.St(isa.R16, 0, isa.R14) // write response word
		b.AddI(isa.R12, isa.R12, 1)
		b.Bltu(isa.R12, isa.R13, "proc")

		// Migratory session counter (atomic increment).
		b.MovI(isa.R9, int64(sp.nSessions-1))
		b.And(isa.R9, isa.R6, isa.R9)
		b.ShlI(isa.R9, isa.R9, int64(memtypes.BlockShift))
		b.Add(isa.R9, isa.R26, isa.R9)
		b.Fadd(isa.R12, isa.R9, 0, isa.R19)

		// Locked per-bucket statistics update.
		b.MovI(isa.R9, int64(sp.nStats-1))
		b.And(isa.R9, isa.R6, isa.R9)
		b.ShlI(isa.R9, isa.R9, int64(memtypes.BlockShift))
		b.Add(isa.R9, isa.R24, isa.R9) // stat block
		b.SpinLockBackoff(isa.R9, 0, isa.R10, isa.R11, 32, fp)
		b.Ld(isa.R12, isa.R9, w(1))
		b.AddI(isa.R12, isa.R12, 1)
		b.St(isa.R9, w(1), isa.R12)
		b.Ld(isa.R12, isa.R9, w(2))
		b.Add(isa.R12, isa.R12, isa.R14)
		b.St(isa.R9, w(2), isa.R12)
		b.SpinUnlock(isa.R9, 0, fp)

		if !sp.noGlobal {
			// Global hit counter (atomic).
			b.Fadd(isa.R12, isa.R25, 0, isa.R19)
		}
		b.Br("loop")

		b.Label("done")
		b.Halt()
		progs[t] = b.MustBuild()
	}

	// Host-side expected totals. Request ids are qlocal*nQueues + q for
	// qlocal in [0, perQueue), q in [0, nQueues) — exactly 0..totalReqs-1.
	docSum := make([]memtypes.Word, sp.nDocs)
	for d := 0; d < sp.nDocs; d++ {
		for i := 0; i < sp.docWords; i++ {
			docSum[d] += mem[docs+memtypes.Addr(w(d*sp.docWords+i))]
		}
	}
	expCount := make([]memtypes.Word, sp.nStats)
	expSum := make([]memtypes.Word, sp.nStats)
	expSession := make([]memtypes.Word, sp.nSessions)
	for r := 0; r < sp.totalReqs; r++ {
		s := r % sp.nStats
		expCount[s]++
		expSum[s] += docSum[r%sp.nDocs]
		expSession[r%sp.nSessions]++
	}
	// Running response checksums for pool validation.
	poolExpect := func(r, k int) memtypes.Word {
		var sum memtypes.Word
		d := r % sp.nDocs
		for i := 0; i <= k; i++ {
			sum += mem[docs+memtypes.Addr(w(d*sp.docWords+i))]
		}
		return sum
	}
	threadsOnQueue := make([]int, sp.nQueues)
	for t := 0; t < p.Cores; t++ {
		threadsOnQueue[t%sp.nQueues]++
	}

	cores := p.Cores
	return &Workload{
		Name:        sp.name,
		Description: sp.desc,
		Programs:    progs,
		RegInit:     regInit(cores),
		MemInit:     mem,
		Validate: func(read func(memtypes.Addr) memtypes.Word) error {
			for q := 0; q < sp.nQueues; q++ {
				want := memtypes.Word(perQueue + threadsOnQueue[q])
				if got := read(blockOf(qheads, q)); got != want {
					return fmt.Errorf("%s: queue %d head = %d, want %d", sp.name, q, got, want)
				}
			}
			if !sp.noGlobal {
				if got := read(global); got != memtypes.Word(sp.totalReqs) {
					return fmt.Errorf("%s: global hits = %d, want %d", sp.name, got, sp.totalReqs)
				}
			}
			for s := 0; s < sp.nSessions; s++ {
				if got := read(blockOf(sessions, s)); got != expSession[s] {
					return fmt.Errorf("%s: session %d = %d, want %d", sp.name, s, got, expSession[s])
				}
			}
			for r := 0; r < sp.totalReqs; r += 37 {
				for _, k := range []int{0, sp.docWords - 1} {
					a := pool + memtypes.Addr(r*sp.docWords*memtypes.WordBytes+k*memtypes.WordBytes)
					if got := read(a); got != poolExpect(r, k) {
						return fmt.Errorf("%s: pool[%d][%d] = %d, want %d", sp.name, r, k, got, poolExpect(r, k))
					}
				}
			}
			for s := 0; s < sp.nStats; s++ {
				base := blockOf(stats, s)
				if got := read(base + memtypes.Addr(w(1))); got != expCount[s] {
					return fmt.Errorf("%s: stat %d count = %d, want %d", sp.name, s, got, expCount[s])
				}
				if got := read(base + memtypes.Addr(w(2))); got != expSum[s] {
					return fmt.Errorf("%s: stat %d sum = %d, want %d", sp.name, s, got, expSum[s])
				}
				if got := read(base); got != 0 {
					return fmt.Errorf("%s: stat lock %d left held", sp.name, s)
				}
			}
			return nil
		},
	}
}

// shiftFor returns log2(n), panicking if n is not a power of two.
func shiftFor(n int, what string) int64 {
	s := int64(0)
	for 1<<s < n {
		s++
	}
	if 1<<s != n {
		panic(fmt.Sprintf("server: %s (%d) must be a power of two", what, n))
	}
	return s
}
