package kernels

import (
	"fmt"
	"sync"

	"warpsched/internal/isa"
	"warpsched/internal/sim"
)

// NW scoring parameters.
const (
	nwMatch    = 3
	nwMismatch = -2
	nwGap      = 1
)

// NewNW builds the Needleman-Wunsch wavefront kernel (paper §V, the
// lock/flag-based dataflow implementation of Li et al. [16]): the DP
// matrix is partitioned into 32-row bands, one warp per band. Within a
// band the warp sweeps an anti-diagonal (lane l computes row l of the
// band at column t−l on step t), so intra-band dependencies are satisfied
// by SIMT lockstep plus a fence per step. Across bands, lane 0 busy-waits
// on the previous band's per-column progress flag — the fine-grained
// wait-and-signal synchronization the paper studies. Band b depends on
// band b−1, so older warps unblock younger ones (why NW prefers GTO,
// paper §VI).
//
// direction 1 (NW1) fills the matrix top-left to bottom-right; direction
// 2 (NW2) computes the reverse DP, traversing the matrix in the opposite
// direction with the same synchronization structure.
//
// g is the DP dimension; the launch uses exactly g threads, so g must be
// a multiple of 32 and of ctaThreads.
func NewNW(direction, g, ctaThreads int) *Kernel {
	if g%ctaThreads != 0 || g%32 != 0 {
		panic(fmt.Sprintf("NW: g=%d must be a multiple of 32 and of ctaThreads=%d", g, ctaThreads))
	}
	ctas := g / ctaThreads
	bands := g / 32
	stride := g + 1 // DP matrix row stride

	var l layout
	matrix := l.array((g + 1) * (g + 1))
	l.alignLine()
	seqA := l.array(g)
	seqB := l.array(g)
	l.alignLine()
	progress := l.array(bands)

	const (
		rG, rMatB, rAB, rBB, rProgB    = 10, 11, 12, 13, 14
		rRow, rBand, rLane, rT, rCol   = 2, 4, 5, 6, 7
		rDiag, rLeft, rUp, rChA, rChB  = 8, 9, 15, 16, 17
		rScore, rV, rTmp, rFlag, rPr   = 18, 19, 20, 21, 22
		rOwnOff, rUpOff, rPrevBand, rC = 23, 24, 25, 26
		pT, pGe0, pLtG, pDep, pWait    = 0, 1, 2, 3, 4
		pEq, pSig                      = 5, 6
	)

	name := fmt.Sprintf("NW%d", direction)
	b := isa.NewBuilder(name)
	b.LdParam(rG, 0)
	b.LdParam(rMatB, 1)
	b.LdParam(rAB, 2)
	b.LdParam(rBB, 3)
	b.LdParam(rProgB, 4)
	b.Mov(rLane, isa.S(isa.SpecLaneID))
	b.Mov(rTmp, isa.S(isa.SpecGTID))
	b.Shr(rBand, isa.R(rTmp), isa.I(5)) // global warp id = band
	if direction == 1 {
		b.Mov(rRow, isa.R(rTmp)) // DP row rRow+1
	} else {
		// NW2: lane l of band w owns DP row g-1-gtid; band 0 holds the
		// dependency-free bottom rows.
		b.Sub(rRow, isa.R(rG), isa.I(1))
		b.Sub(rRow, isa.R(rRow), isa.R(rTmp)) // DP row rRow
	}
	b.Sub(rPrevBand, isa.R(rBand), isa.I(1))
	// hasDep ⇔ lane == 0 && band > 0: flag = (band==0 ? 1 : lane).
	b.Setp(isa.EQ, pDep, isa.R(rBand), isa.I(0))
	b.Selp(rFlag, pDep, isa.I(1), isa.R(rLane))
	b.Setp(isa.EQ, pDep, isa.R(rFlag), isa.I(0))
	// Row offsets and boundary-initialized diag/left registers.
	if direction == 1 {
		b.Mul(rUpOff, isa.R(rRow), isa.I(int32(stride))) // dependency DP row
		b.Add(rTmp, isa.R(rRow), isa.I(1))
		b.Mul(rOwnOff, isa.R(rTmp), isa.I(int32(stride))) // own DP row
		b.Ld(rDiag, isa.R(rMatB), isa.R(rUpOff))          // M[row][0]
		b.Ld(rLeft, isa.R(rMatB), isa.R(rOwnOff))         // M[row+1][0]
		b.Ld(rChA, isa.R(rAB), isa.R(rRow))
	} else {
		b.Mul(rOwnOff, isa.R(rRow), isa.I(int32(stride))) // own DP row
		b.Add(rTmp, isa.R(rRow), isa.I(1))
		b.Mul(rUpOff, isa.R(rTmp), isa.I(int32(stride))) // dependency DP row
		b.Add(rTmp, isa.R(rUpOff), isa.I(int32(g)))
		b.Ld(rDiag, isa.R(rMatB), isa.R(rTmp)) // M[row+1][g]
		b.Add(rTmp, isa.R(rOwnOff), isa.I(int32(g)))
		b.Ld(rLeft, isa.R(rMatB), isa.R(rTmp)) // M[row][g]
		b.Ld(rChA, isa.R(rAB), isa.R(rRow))
	}

	// Anti-diagonal sweep: step t activates lane l on column t-l.
	b.For(rT, isa.I(0), isa.I(int32(g+31)), 1, pT, func() {
		b.Sub(rCol, isa.R(rT), isa.R(rLane))
		b.Setp(isa.GE, pGe0, isa.R(rCol), isa.I(0))
		b.If(pGe0, false, func() {
			b.Setp(isa.LT, pLtG, isa.R(rCol), isa.R(rG))
			b.If(pLtG, false, func() {
				// Cross-band wait: lane 0 spins until the previous band
				// has published this column (Figure 6c-style polling).
				b.If(pDep, false, func() {
					b.Annotate(isa.AnnSync, func() {
						b.DoWhile(pWait, false,
							func() { b.LdVol(rPr, isa.R(rProgB), isa.R(rPrevBand)) },
							func() { b.Setp(isa.LE, pWait, isa.R(rPr), isa.R(rCol)) })
						b.AnnotateLast(isa.AnnWaitCheck)
					})
				})
				// Column index within the matrix row.
				if direction == 1 {
					b.Add(rC, isa.R(rCol), isa.I(1)) // store col+1
					b.Add(rTmp, isa.R(rUpOff), isa.R(rC))
					b.LdVol(rUp, isa.R(rMatB), isa.R(rTmp)) // M[row][col+1]
					b.Ld(rChB, isa.R(rBB), isa.R(rCol))
				} else {
					b.Sub(rC, isa.R(rG), isa.I(1))
					b.Sub(rC, isa.R(rC), isa.R(rCol)) // store col' = g-1-col
					b.Add(rTmp, isa.R(rUpOff), isa.R(rC))
					b.LdVol(rUp, isa.R(rMatB), isa.R(rTmp)) // M[row+1][col']
					b.Ld(rChB, isa.R(rBB), isa.R(rC))
				}
				b.Setp(isa.EQ, pEq, isa.R(rChA), isa.R(rChB))
				b.Selp(rScore, pEq, isa.I(nwMatch), isa.I(nwMismatch))
				b.Add(rV, isa.R(rDiag), isa.R(rScore))
				b.Sub(rTmp, isa.R(rUp), isa.I(nwGap))
				b.Max(rV, isa.R(rV), isa.R(rTmp))
				b.Sub(rTmp, isa.R(rLeft), isa.I(nwGap))
				b.Max(rV, isa.R(rV), isa.R(rTmp))
				b.Add(rTmp, isa.R(rOwnOff), isa.R(rC))
				// Each lane owns one DP row (rOwnOff = row*stride with row
				// an affine function of gtid); the dependency-row loads read
				// the neighbouring band's row, one stride away. The
				// row-times-stride product and loop-carried column make the
				// separation non-affine for warprace, and the cross-band
				// ordering itself is enforced by the progress flag spin.
				b.St(isa.R(rMatB), isa.R(rTmp), isa.R(rV))
				b.NoLintLast("race")
				b.Mov(rLeft, isa.R(rV))
				b.Mov(rDiag, isa.R(rUp))
				// Publish: lane 31 signals the band's progress after its
				// cell store has drained.
				b.Annotate(isa.AnnSync, func() {
					b.Membar()
					b.Setp(isa.EQ, pSig, isa.R(rLane), isa.I(31))
					b.If(pSig, false, func() {
						b.Add(rTmp, isa.R(rCol), isa.I(1))
						// Only lane 31 of each band publishes, and bands map
						// one-to-one onto progress words; the lane==31 guard
						// plus the spin-read pairing is a release/acquire
						// protocol warprace's pair rule does not model.
						b.St(isa.R(rProgB), isa.R(rBand), isa.R(rTmp))
						b.NoLintLast("race")
					})
				})
			})
		})
	})
	b.Exit()
	prog := b.MustBuild()

	type nwData struct {
		a, b []uint32
		ref  []int32 // the reference DP matrix
	}
	data := sync.OnceValue(func() nwData {
		r := rng(int64(17 + direction))
		aV := make([]uint32, g)
		bV := make([]uint32, g)
		for i := 0; i < g; i++ {
			aV[i] = uint32(r.Intn(4)) // nucleotide alphabet
			bV[i] = uint32(r.Intn(4))
		}

		// Reference DP in Go.
		ref := make([]int32, (g+1)*(g+1))
		if direction == 1 {
			for j := 0; j <= g; j++ {
				ref[j] = int32(-j * nwGap)
			}
			for i := 1; i <= g; i++ {
				ref[i*stride] = int32(-i * nwGap)
				for j := 1; j <= g; j++ {
					s := int32(nwMismatch)
					if aV[i-1] == bV[j-1] {
						s = nwMatch
					}
					v := ref[(i-1)*stride+j-1] + s
					if w := ref[(i-1)*stride+j] - nwGap; w > v {
						v = w
					}
					if w := ref[i*stride+j-1] - nwGap; w > v {
						v = w
					}
					ref[i*stride+j] = v
				}
			}
		} else {
			for j := 0; j <= g; j++ {
				ref[g*stride+j] = int32(-(g - j) * nwGap)
			}
			for i := g - 1; i >= 0; i-- {
				ref[i*stride+g] = int32(-(g - i) * nwGap)
				for j := g - 1; j >= 0; j-- {
					s := int32(nwMismatch)
					if aV[i] == bV[j] {
						s = nwMatch
					}
					v := ref[(i+1)*stride+j+1] + s
					if w := ref[(i+1)*stride+j] - nwGap; w > v {
						v = w
					}
					if w := ref[i*stride+j+1] - nwGap; w > v {
						v = w
					}
					ref[i*stride+j] = v
				}
			}
		}
		return nwData{aV, bV, ref}
	})

	setup := func(w []uint32) {
		d := data()
		copy(w[seqA:], d.a)
		copy(w[seqB:], d.b)
		if direction == 1 {
			for j := 0; j <= g; j++ {
				w[matrix+uint32(j)] = uint32(int32(-j * nwGap))
			}
			for i := 1; i <= g; i++ {
				w[matrix+uint32(i*stride)] = uint32(int32(-i * nwGap))
			}
		} else {
			for j := 0; j <= g; j++ {
				w[matrix+uint32(g*stride+j)] = uint32(int32(-(g - j) * nwGap))
			}
			for i := 0; i < g; i++ {
				w[matrix+uint32(i*stride+g)] = uint32(int32(-(g - i) * nwGap))
			}
		}
	}

	verify := func(w []uint32) error {
		ref := data().ref
		for i := 0; i <= g; i++ {
			for j := 0; j <= g; j++ {
				got := int32(w[matrix+uint32(i*stride+j)])
				if got != ref[i*stride+j] {
					return fmt.Errorf("%s: M[%d][%d] = %d, want %d", name, i, j, got, ref[i*stride+j])
				}
			}
		}
		return nil
	}

	return &Kernel{
		Name:  name,
		Class: ClassSync,
		Desc:  fmt.Sprintf("Needleman-Wunsch wavefront %dx%d, direction %d", g, g, direction),
		Launch: sim.Launch{
			Prog:       prog,
			GridCTAs:   ctas,
			CTAThreads: ctaThreads,
			Params:     []uint32{uint32(g), matrix, seqA, seqB, progress},
			MemWords:   l.size(),
			Setup:      setup,
		},
		Verify: verify,
	}
}
