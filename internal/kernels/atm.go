package kernels

import (
	"fmt"
	"math/rand"
	"sync"

	"warpsched/internal/isa"
	"warpsched/internal/sim"
)

// NewATM builds the bank-transfer kernel (paper §V, Figure 6a): each
// transaction moves an amount between two accounts inside the nested
// try-lock of their two mutexes (nestedTryLock).
func NewATM(txns, accounts, ctas, ctaThreads int) *Kernel {
	var l layout
	src := l.array(txns)
	dst := l.array(txns)
	amt := l.array(txns)
	l.alignLine()
	locks := l.array(accounts)
	l.alignLine()
	bal := l.array(accounts)

	const (
		rN, rSrcB, rDstB, rAmtB, rLockB, rBalB = 10, 11, 12, 13, 14, 15
		rStride, rT, rS, rD, rA, rDone         = 16, 2, 4, 5, 6, 7
		rCas1, rCas2, rB1, rB2, rTmp           = 8, 9, 17, 18, 19
		pLoop, pGot1, pGot2, pSpin             = 0, 1, 2, 3
	)

	b := isa.NewBuilder("ATM")
	b.LdParam(rN, 0)
	b.LdParam(rSrcB, 1)
	b.LdParam(rDstB, 2)
	b.LdParam(rAmtB, 3)
	b.LdParam(rLockB, 4)
	b.LdParam(rBalB, 5)
	b.Mov(rT, isa.S(isa.SpecGTID))
	b.Mov(rStride, isa.S(isa.SpecNTID))
	b.Mul(rStride, isa.R(rStride), isa.S(isa.SpecNCTAID))
	b.While(pLoop, false,
		func() { b.Setp(isa.LT, pLoop, isa.R(rT), isa.R(rN)) },
		func() {
			b.Ld(rS, isa.R(rSrcB), isa.R(rT))
			b.Ld(rD, isa.R(rDstB), isa.R(rT))
			b.Ld(rA, isa.R(rAmtB), isa.R(rT))
			nestedTryLock(b, tryLockRegs{locks: rLockB, first: rS, second: rD, done: rDone,
				cas1: rCas1, cas2: rCas2, tmp: rTmp, got1: pGot1, got2: pGot2, spin: pSpin}, func() {
				// critical section: the transfer
				b.LdVol(rB1, isa.R(rBalB), isa.R(rS))
				b.Sub(rB1, isa.R(rB1), isa.R(rA))
				b.St(isa.R(rBalB), isa.R(rS), isa.R(rB1))
				b.LdVol(rB2, isa.R(rBalB), isa.R(rD))
				b.Add(rB2, isa.R(rB2), isa.R(rA))
				b.St(isa.R(rBalB), isa.R(rD), isa.R(rB2))
			})
			b.Add(rT, isa.R(rT), isa.R(rStride))
		})
	b.Exit()
	prog := b.MustBuild()

	const initBal = 1 << 20
	type atmData struct {
		src, dst, amt []uint32
		expected      []int64 // final balance per account
	}
	data := sync.OnceValue(func() atmData {
		r := rng(7)
		srcV := make([]uint32, txns)
		dstV := make([]uint32, txns)
		amtV := make([]uint32, txns)
		for i := 0; i < txns; i++ {
			srcV[i], dstV[i] = drawPair(r, accounts, srcV[:i], dstV[:i])
			amtV[i] = uint32(1 + r.Intn(100))
		}
		expected := make([]int64, accounts)
		for i := range expected {
			expected[i] = initBal
		}
		for i := 0; i < txns; i++ {
			expected[srcV[i]] -= int64(amtV[i])
			expected[dstV[i]] += int64(amtV[i])
		}
		return atmData{srcV, dstV, amtV, expected}
	})

	return &Kernel{
		Name:  "ATM",
		Class: ClassSync,
		Desc:  fmt.Sprintf("bank transfers: %d txns over %d accounts, nested locks", txns, accounts),
		Launch: sim.Launch{
			Prog:       prog,
			GridCTAs:   ctas,
			CTAThreads: ctaThreads,
			Params:     []uint32{uint32(txns), src, dst, amt, locks, bal},
			MemWords:   l.size(),
			Setup: func(w []uint32) {
				d := data()
				copy(w[src:], d.src)
				copy(w[dst:], d.dst)
				copy(w[amt:], d.amt)
				for a := 0; a < accounts; a++ {
					w[bal+uint32(a)] = initBal
				}
			},
		},
		Verify: func(w []uint32) error {
			expected := data().expected
			var total int64
			for a := 0; a < accounts; a++ {
				got := int64(int32(w[bal+uint32(a)]))
				total += got
				if got != expected[a] {
					return fmt.Errorf("ATM: account %d balance %d, want %d", a, got, expected[a])
				}
				if w[locks+uint32(a)] != 0 {
					return fmt.Errorf("ATM: lock %d still held", a)
				}
			}
			if want := int64(accounts) * initBal; total != want {
				return fmt.Errorf("ATM: total balance %d, want %d", total, want)
			}
			return nil
		},
	}
}

// NewClothDS builds the cloth-physics Distance Solver kernel (paper §V,
// CP): each distance constraint between two particles is relaxed inside a
// critical section protected by the two particles' locks, using the same
// nested try-lock pattern as ATM but with a symmetric position update
// whose sum is conserved regardless of processing order.
func NewClothDS(constraints, particles, ctas, ctaThreads int) *Kernel {
	var l layout
	ia := l.array(constraints)
	ib := l.array(constraints)
	l.alignLine()
	locks := l.array(particles)
	l.alignLine()
	pos := l.array(particles)
	done := l.array(constraints)

	const (
		rN, rIaB, rIbB, rLockB, rPosB, rDoneB = 10, 11, 12, 13, 14, 15
		rStride, rT, rI, rJ, rFlag            = 16, 2, 4, 5, 7
		rCas1, rCas2, rPi, rPj, rDelta, rTmp  = 8, 9, 17, 18, 19, 20
		pLoop, pGot1, pGot2, pSpin            = 0, 1, 2, 3
	)

	b := isa.NewBuilder("DS")
	b.LdParam(rN, 0)
	b.LdParam(rIaB, 1)
	b.LdParam(rIbB, 2)
	b.LdParam(rLockB, 3)
	b.LdParam(rPosB, 4)
	b.LdParam(rDoneB, 5)
	b.Mov(rT, isa.S(isa.SpecGTID))
	b.Mov(rStride, isa.S(isa.SpecNTID))
	b.Mul(rStride, isa.R(rStride), isa.S(isa.SpecNCTAID))
	b.While(pLoop, false,
		func() { b.Setp(isa.LT, pLoop, isa.R(rT), isa.R(rN)) },
		func() {
			b.Ld(rI, isa.R(rIaB), isa.R(rT))
			b.Ld(rJ, isa.R(rIbB), isa.R(rT))
			nestedTryLock(b, tryLockRegs{locks: rLockB, first: rI, second: rJ, done: rFlag,
				cas1: rCas1, cas2: rCas2, tmp: rTmp, got1: pGot1, got2: pGot2, spin: pSpin}, func() {
				// Relax the constraint: move both particles a quarter of
				// their signed separation toward each other (sum-conserving).
				b.LdVol(rPi, isa.R(rPosB), isa.R(rI))
				b.LdVol(rPj, isa.R(rPosB), isa.R(rJ))
				b.Sub(rDelta, isa.R(rPi), isa.R(rPj))
				b.Div(rDelta, isa.R(rDelta), isa.I(4))
				b.Sub(rPi, isa.R(rPi), isa.R(rDelta))
				b.Add(rPj, isa.R(rPj), isa.R(rDelta))
				b.St(isa.R(rPosB), isa.R(rI), isa.R(rPi))
				b.St(isa.R(rPosB), isa.R(rJ), isa.R(rPj))
				b.St(isa.R(rDoneB), isa.R(rT), isa.I(1))
			})
			b.Add(rT, isa.R(rT), isa.R(rStride))
		})
	b.Exit()
	prog := b.MustBuild()

	type dsData struct {
		ia, ib, pos []uint32
		posSum      int64
	}
	data := sync.OnceValue(func() (d dsData) {
		r := rng(11)
		d.ia = make([]uint32, constraints)
		d.ib = make([]uint32, constraints)
		for i := 0; i < constraints; i++ {
			d.ia[i], d.ib[i] = drawPair(r, particles, d.ia[:i], d.ib[:i])
		}
		d.pos = draws(r, particles, 0, 1<<16)
		for _, p := range d.pos {
			d.posSum += int64(p)
		}
		return d
	})

	return &Kernel{
		Name:  "DS",
		Class: ClassSync,
		Desc:  fmt.Sprintf("cloth distance solver: %d constraints over %d particles", constraints, particles),
		Launch: sim.Launch{
			Prog:       prog,
			GridCTAs:   ctas,
			CTAThreads: ctaThreads,
			Params:     []uint32{uint32(constraints), ia, ib, locks, pos, done},
			MemWords:   l.size(),
			Setup: func(w []uint32) {
				d := data()
				copy(w[ia:], d.ia)
				copy(w[ib:], d.ib)
				copy(w[pos:], d.pos)
			},
		},
		Verify: func(w []uint32) error {
			for c := 0; c < constraints; c++ {
				if w[done+uint32(c)] != 1 {
					return fmt.Errorf("DS: constraint %d not solved", c)
				}
			}
			var total int64
			for p := 0; p < particles; p++ {
				total += int64(int32(w[pos+uint32(p)]))
				if w[locks+uint32(p)] != 0 {
					return fmt.Errorf("DS: lock %d still held", p)
				}
			}
			if posSum := data().posSum; total != posSum {
				return fmt.Errorf("DS: position sum %d, want %d (not conserved)", total, posSum)
			}
			return nil
		},
	}
}

// tryLockRegs names the registers and predicates of one Figure 6a
// nested try-lock: the lock array base and the two lock indices, the
// done flag, the two CAS results, the release scratch, and the
// first-lock, second-lock and retry predicates.
type tryLockRegs struct {
	locks, first, second, done, cas1, cas2, tmp isa.Reg
	got1, got2, spin                            isa.Pred
}

// nestedTryLock emits Figure 6a's nested try-lock around critical: take
// lock first; try lock second; if both are held run critical, release
// both and set done, else release first (Figure 6a line 10); repeat until
// done. No lane spins while holding a lock, which makes the idiom
// SIMT-deadlock-free. Everything but critical is AnnSync, and the retry
// branch is the loop's SIB.
func nestedTryLock(b *isa.Builder, r tryLockRegs, critical func()) {
	tryLock := func(cas, idx isa.Reg, got isa.Pred) {
		b.Annotate(isa.AnnSync, func() {
			b.AtomCAS(cas, isa.R(r.locks), isa.R(idx), isa.I(0), isa.I(1))
			b.AnnotateLast(isa.AnnLockAcquire)
			b.Setp(isa.EQ, got, isa.R(cas), isa.I(0))
		})
	}
	release := func(idx isa.Reg) {
		b.AtomExch(r.tmp, isa.R(r.locks), isa.R(idx), isa.I(0))
		b.AnnotateLast(isa.AnnLockRelease)
	}
	b.Annotate(isa.AnnSync, func() { b.Mov(r.done, isa.I(0)) })
	b.DoWhile(r.spin, false,
		func() {
			tryLock(r.cas1, r.first, r.got1)
			b.If(r.got1, false, func() {
				tryLock(r.cas2, r.second, r.got2)
				b.IfElse(r.got2, false,
					func() {
						critical()
						b.Annotate(isa.AnnSync, func() {
							b.Membar()
							release(r.second)
							release(r.first)
							b.Mov(r.done, isa.I(1))
						})
					},
					func() { b.Annotate(isa.AnnSync, func() { release(r.first) }) })
			})
		},
		func() {
			b.Annotate(isa.AnnSync, func() {
				b.Setp(isa.EQ, r.spin, isa.R(r.done), isa.I(0))
			})
		})
	b.AnnotateLast(isa.AnnSync)
}

// drawPair draws the next lock pair of a Figure 6a input, given the
// pairs drawn so far: two distinct indices below n, first then second,
// redrawn while an earlier element of the same 32-element warp group
// holds the reverse pair. A pair on one lock would self-livelock, and two
// lanes of one warp running (x, y) and (y, x) take their first locks in
// SIMT lockstep and retry-collide forever: the unordered try-lock cannot
// terminate on such inputs on any SIMT machine, so valid inputs exclude
// them.
func drawPair(r *rand.Rand, n int, firsts, seconds []uint32) (first, second uint32) {
	i := len(firsts)
redraw:
	for {
		first, second = uint32(r.Intn(n)), uint32(r.Intn(n-1))
		if second >= first {
			second++
		}
		for j := i - i%32; j < i; j++ {
			if firsts[j] == second && seconds[j] == first {
				continue redraw
			}
		}
		return first, second
	}
}
