package kernels

import (
	"fmt"
	"sync"

	"warpsched/internal/isa"
	"warpsched/internal/sim"
)

// NewATM builds the bank-transfer kernel (paper §V, Figure 6a): each
// transaction locks two account mutexes with the nested try-lock idiom —
// acquire lock1; try lock2; on failure release lock1 and retry the whole
// sequence — which is SIMT-deadlock-free because no thread spins while
// holding a lock.
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
			b.Annotate(isa.AnnSync, func() { b.Mov(rDone, isa.I(0)) })
			b.DoWhile(pSpin, false, true,
				func() {
					// try lock 1 (source account)
					b.Annotate(isa.AnnSync, func() {
						b.AtomCAS(rCas1, isa.R(rLockB), isa.R(rS), isa.I(0), isa.I(1))
						b.AnnotateLast(isa.AnnLockAcquire)
						b.Setp(isa.EQ, pGot1, isa.R(rCas1), isa.I(0))
					})
					b.If(pGot1, false, func() {
						// try lock 2 (destination account)
						b.Annotate(isa.AnnSync, func() {
							b.AtomCAS(rCas2, isa.R(rLockB), isa.R(rD), isa.I(0), isa.I(1))
							b.AnnotateLast(isa.AnnLockAcquire)
							b.Setp(isa.EQ, pGot2, isa.R(rCas2), isa.I(0))
						})
						b.IfElse(pGot2, false,
							func() {
								// critical section: the transfer
								b.LdVol(rB1, isa.R(rBalB), isa.R(rS))
								b.Sub(rB1, isa.R(rB1), isa.R(rA))
								b.St(isa.R(rBalB), isa.R(rS), isa.R(rB1))
								b.LdVol(rB2, isa.R(rBalB), isa.R(rD))
								b.Add(rB2, isa.R(rB2), isa.R(rA))
								b.St(isa.R(rBalB), isa.R(rD), isa.R(rB2))
								b.Annotate(isa.AnnSync, func() {
									b.Membar()
									b.AtomExch(rTmp, isa.R(rLockB), isa.R(rD), isa.I(0))
									b.AnnotateLast(isa.AnnLockRelease)
									b.AtomExch(rTmp, isa.R(rLockB), isa.R(rS), isa.I(0))
									b.AnnotateLast(isa.AnnLockRelease)
									b.Mov(rDone, isa.I(1))
								})
							},
							func() {
								// lock 2 busy: back out of lock 1 (Figure 6a line 10)
								b.Annotate(isa.AnnSync, func() {
									b.AtomExch(rTmp, isa.R(rLockB), isa.R(rS), isa.I(0))
									b.AnnotateLast(isa.AnnLockRelease)
								})
							})
					})
				},
				func() {
					b.Annotate(isa.AnnSync, func() {
						b.Setp(isa.EQ, pSpin, isa.R(rDone), isa.I(0))
					})
				})
			b.AnnotateLast(isa.AnnSync)
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
		retry:
			s := r.Intn(accounts)
			d := r.Intn(accounts - 1)
			if d >= s {
				d++ // distinct accounts: same-account transfers would self-livelock
			}
			// Reject anti-symmetric pairs within the same warp's 32-txn group:
			// two lanes of one warp running (x→y, y→x) acquire their first
			// locks in SIMT lockstep and retry-collide forever — the unordered
			// try-lock of Figure 6a cannot terminate on such inputs on any
			// SIMT machine, so valid inputs must exclude them.
			for j := i - i%32; j < i; j++ {
				if srcV[j] == uint32(d) && dstV[j] == uint32(s) {
					goto retry
				}
			}
			srcV[i] = uint32(s)
			dstV[i] = uint32(d)
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
			b.Annotate(isa.AnnSync, func() { b.Mov(rFlag, isa.I(0)) })
			b.DoWhile(pSpin, false, true,
				func() {
					b.Annotate(isa.AnnSync, func() {
						b.AtomCAS(rCas1, isa.R(rLockB), isa.R(rI), isa.I(0), isa.I(1))
						b.AnnotateLast(isa.AnnLockAcquire)
						b.Setp(isa.EQ, pGot1, isa.R(rCas1), isa.I(0))
					})
					b.If(pGot1, false, func() {
						b.Annotate(isa.AnnSync, func() {
							b.AtomCAS(rCas2, isa.R(rLockB), isa.R(rJ), isa.I(0), isa.I(1))
							b.AnnotateLast(isa.AnnLockAcquire)
							b.Setp(isa.EQ, pGot2, isa.R(rCas2), isa.I(0))
						})
						b.IfElse(pGot2, false,
							func() {
								// Relax the constraint: move both particles
								// a quarter of their signed separation
								// toward each other (sum-conserving).
								b.LdVol(rPi, isa.R(rPosB), isa.R(rI))
								b.LdVol(rPj, isa.R(rPosB), isa.R(rJ))
								b.Sub(rDelta, isa.R(rPi), isa.R(rPj))
								b.Div(rDelta, isa.R(rDelta), isa.I(4))
								b.Sub(rPi, isa.R(rPi), isa.R(rDelta))
								b.Add(rPj, isa.R(rPj), isa.R(rDelta))
								b.St(isa.R(rPosB), isa.R(rI), isa.R(rPi))
								b.St(isa.R(rPosB), isa.R(rJ), isa.R(rPj))
								b.St(isa.R(rDoneB), isa.R(rT), isa.I(1))
								b.Annotate(isa.AnnSync, func() {
									b.Membar()
									b.AtomExch(rTmp, isa.R(rLockB), isa.R(rJ), isa.I(0))
									b.AnnotateLast(isa.AnnLockRelease)
									b.AtomExch(rTmp, isa.R(rLockB), isa.R(rI), isa.I(0))
									b.AnnotateLast(isa.AnnLockRelease)
									b.Mov(rFlag, isa.I(1))
								})
							},
							func() {
								b.Annotate(isa.AnnSync, func() {
									b.AtomExch(rTmp, isa.R(rLockB), isa.R(rI), isa.I(0))
									b.AnnotateLast(isa.AnnLockRelease)
								})
							})
					})
				},
				func() {
					b.Annotate(isa.AnnSync, func() {
						b.Setp(isa.EQ, pSpin, isa.R(rFlag), isa.I(0))
					})
				})
			b.AnnotateLast(isa.AnnSync)
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
		retry:
			a := r.Intn(particles)
			c := r.Intn(particles - 1)
			if c >= a {
				c++
			}
			// As in ATM, anti-symmetric pairs within one warp's group would
			// livelock under lockstep retry; real constraint sets are built
			// without them.
			for j := i - i%32; j < i; j++ {
				if d.ia[j] == uint32(c) && d.ib[j] == uint32(a) {
					goto retry
				}
			}
			d.ia[i] = uint32(a)
			d.ib[i] = uint32(c)
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
