package kernels

import (
	"fmt"
	"sync"

	"warpsched/internal/isa"
	"warpsched/internal/sim"
)

// NewTSP builds the Travelling-Salesman kernel (paper §V, Figure 6b):
// each thread is a hill climber that evaluates candidate tours (the
// dominant, synchronization-free compute), then publishes its best cost
// under a single global lock, serializing threads within a warp with the
// `for (i = 0; i < 32; i++) if (laneid == i)` idiom and spinning on
// `while (atomicCAS(mutex,0,1) != 0)` — the classic single-setp spin
// loop. Synchronization instructions are a tiny fraction of the total,
// matching the paper's observation (<0.03%).
//
// Verify checks the published best against a host model of the cost
// function, built by tspModel with the distance matrix on first launch:
// a table of the M² inner sums over the cities, one per start offset, so
// a climber's cost is one table read per pass. Building it takes M³ +
// 12·climbers steps, where a replay of every climber took 12·M per
// climber. The model is exact: the kernel's running sum is a uint32 that
// wraps, and wrapping addition gives the same bits however the terms are
// grouped.
func NewTSP(climbers, cities, ctas, ctaThreads int) *Kernel {
	if climbers != ctas*ctaThreads {
		panic(fmt.Sprintf("TSP: climbers (%d) must equal ctas*ctaThreads (%d)", climbers, ctas*ctaThreads))
	}
	var l layout
	dist := l.array(cities * cities)
	l.alignLine()
	lock := l.array(1)
	l.alignLine()
	best := l.array(1)
	bestIdx := l.array(1)

	const (
		rM, rDistB, rLockB, rBestB, rIdxB = 10, 11, 12, 13, 14
		rCost, rK, rP, rIdx, rD, rLane    = 2, 4, 5, 6, 7, 8
		rCas, rCur, rSer, rTmp, rM2       = 9, 15, 16, 17, 18
		pKLoop, pPLoop, pSer, pSpin, pBet = 0, 1, 2, 3, 4
	)

	b := isa.NewBuilder("TSP")
	b.LdParam(rM, 0)
	b.LdParam(rDistB, 1)
	b.LdParam(rLockB, 2)
	b.LdParam(rBestB, 3)
	b.LdParam(rIdxB, 4)
	b.Mul(rM2, isa.R(rM), isa.R(rM))
	b.Mov(rCost, isa.I(0))
	b.Mov(rLane, isa.S(isa.SpecLaneID))
	// Hill-climbing passes: accumulate pseudo-tour edge weights. The
	// index pattern depends on gtid and pass so different climbers read
	// different distance entries.
	b.For(rP, isa.I(0), isa.I(tspPasses), 1, pPLoop, func() {
		b.For(rK, isa.I(0), isa.R(rM), 1, pKLoop, func() {
			// idx = (k*31 + gtid*7 + p*13) % (M*M)
			b.Mul(rIdx, isa.R(rK), isa.I(31))
			b.Mov(rTmp, isa.S(isa.SpecGTID))
			b.Mul(rTmp, isa.R(rTmp), isa.I(7))
			b.Add(rIdx, isa.R(rIdx), isa.R(rTmp))
			b.Mul(rTmp, isa.R(rP), isa.I(13))
			b.Add(rIdx, isa.R(rIdx), isa.R(rTmp))
			b.Rem(rIdx, isa.R(rIdx), isa.R(rM2))
			b.Ld(rD, isa.R(rDistB), isa.R(rIdx))
			b.Xor(rTmp, isa.R(rD), isa.R(rK))
			b.Add(rCost, isa.R(rCost), isa.R(rTmp))
		})
	})
	b.And(rCost, isa.R(rCost), isa.I(0x7FFFFFFF)) // keep cost non-negative
	// Unlocked pre-check (double-checked locking): only climbers whose
	// candidate beats the published best contend for the global lock —
	// this is why synchronization is a vanishing fraction of TSP's
	// instructions (paper: <0.03%).
	b.LdVol(rCur, isa.R(rBestB), isa.I(0))
	b.Setp(isa.LT, pBet, isa.R(rCost), isa.R(rCur))
	b.If(pBet, false, func() {
		// Publish under the global lock, one lane at a time (Figure 6b).
		b.For(rSer, isa.I(0), isa.I(32), 1, pSer, func() {
			b.Setp(isa.EQ, pSpin, isa.R(rLane), isa.R(rSer))
			b.If(pSpin, false, func() {
				b.Annotate(isa.AnnSync, func() {
					b.DoWhile(pSpin, false,
						func() {
							b.AtomCAS(rCas, isa.R(rLockB), isa.I(0), isa.I(0), isa.I(1))
							b.AnnotateLast(isa.AnnLockAcquire)
						},
						func() { b.Setp(isa.NE, pSpin, isa.R(rCas), isa.I(0)) })
				})
				// critical section: re-check under the lock
				b.LdVol(rCur, isa.R(rBestB), isa.I(0))
				b.Setp(isa.LT, pBet, isa.R(rCost), isa.R(rCur))
				b.If(pBet, false, func() {
					b.St(isa.R(rBestB), isa.I(0), isa.R(rCost))
					b.Mov(rTmp, isa.S(isa.SpecGTID))
					b.St(isa.R(rIdxB), isa.I(0), isa.R(rTmp))
				})
				b.Annotate(isa.AnnSync, func() {
					b.Membar()
					b.AtomExch(rTmp, isa.R(rLockB), isa.I(0), isa.I(0))
					b.AnnotateLast(isa.AnnLockRelease)
				})
			})
		})
	})
	b.Exit()
	prog := b.MustBuild()

	type tspData struct {
		dist    []uint32
		costOf  func(gtid int) uint32
		minCost uint32
	}
	data := sync.OnceValue(func() (d tspData) {
		d.dist = draws(rng(13), cities*cities, 1, 1000)
		d.costOf, d.minCost = tspModel(d.dist, cities, climbers)
		return d
	})

	return &Kernel{
		Name:  "TSP",
		Class: ClassSync,
		Desc:  fmt.Sprintf("TSP hill climbing: %d climbers, %d cities, one global lock", climbers, cities),
		Launch: sim.Launch{
			Prog:       prog,
			GridCTAs:   ctas,
			CTAThreads: ctaThreads,
			Params:     []uint32{uint32(cities), dist, lock, best, bestIdx},
			MemWords:   l.size(),
			Setup: func(w []uint32) {
				copy(w[dist:], data().dist)
				w[best] = 0x7FFFFFFF
			},
		},
		Verify: func(w []uint32) error {
			d := data()
			costOf, minCost := d.costOf, d.minCost
			if w[lock] != 0 {
				return fmt.Errorf("TSP: global lock still held")
			}
			if w[best] != minCost {
				return fmt.Errorf("TSP: best cost %d, want %d", w[best], minCost)
			}
			winner := w[bestIdx]
			if winner >= uint32(climbers) {
				return fmt.Errorf("TSP: best index %d out of range", winner)
			}
			if costOf(int(winner)) != minCost {
				return fmt.Errorf("TSP: winner %d has cost %d, not the minimum %d",
					winner, costOf(int(winner)), minCost)
			}
			return nil
		},
	}
}

// tspPasses is how many hill-climbing passes each TSP climber makes.
const tspPasses = 12

// tspModel mirrors the TSP kernel's cost function on the host. Climber g
// costs (Σ_p Σ_k dist[(31k + 7g + 13p) mod M²] ^ k) & 0x7FFFFFFF over
// passes p and cities k, with M² = len(dist). The inner sum over k
// depends only on its start offset o = (7g + 13p) mod M², so the model
// tabulates it once per offset and sums tspPasses table entries per
// climber. It returns the cost function and the least cost over climbers
// 0 to climbers−1.
func tspModel(dist []uint32, cities, climbers int) (costOf func(gtid int) uint32, minCost uint32) {
	m2 := cities * cities
	inner := make([]uint32, m2)
	for o := range inner {
		var sum uint32
		for k := 0; k < cities; k++ {
			sum += dist[(o+31*k)%m2] ^ uint32(k)
		}
		inner[o] = sum
	}
	costOf = func(gtid int) uint32 {
		var cost uint32
		for p := 0; p < tspPasses; p++ {
			cost += inner[(7*gtid+13*p)%m2]
		}
		return cost & 0x7FFFFFFF
	}
	minCost = 0x7FFFFFFF
	for t := 0; t < climbers; t++ {
		minCost = min(minCost, costOf(t))
	}
	return costOf, minCost
}
