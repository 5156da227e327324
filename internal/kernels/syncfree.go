package kernels

import (
	"fmt"
	"sync"

	"warpsched/internal/isa"
	"warpsched/internal/sim"
)

// NewKmeansCopy builds the Kmeans invert_mapping loop of paper Figure 7c:
// a regular grid-stride copy whose induction variable changes every
// iteration, the canonical "normal loop" DDOS must not flag.
func NewKmeansCopy(n, ctas, ctaThreads int) *Kernel {
	var l layout
	in := l.array(n)
	out := l.array(n)

	const (
		rN, rInB, rOutB, rI, rStride, rV = 10, 11, 12, 2, 16, 4
		pLoop                            = 0
	)
	b := isa.NewBuilder("KMEANS")
	b.LdParam(rN, 0)
	b.LdParam(rInB, 1)
	b.LdParam(rOutB, 2)
	b.Mov(rI, isa.S(isa.SpecGTID))
	b.Mov(rStride, isa.S(isa.SpecNTID))
	b.Mul(rStride, isa.R(rStride), isa.S(isa.SpecNCTAID))
	b.While(pLoop, false,
		func() { b.Setp(isa.LT, pLoop, isa.R(rI), isa.R(rN)) },
		func() {
			b.Ld(rV, isa.R(rInB), isa.R(rI))
			b.St(isa.R(rOutB), isa.R(rI), isa.R(rV))
			b.Add(rI, isa.R(rI), isa.R(rStride))
		})
	b.Exit()
	prog := b.MustBuild()

	inV := sync.OnceValue(func() []uint32 { return draws(rng(31), n, 0, 1<<30) })
	return &Kernel{
		Name:  "KMEANS",
		Class: ClassSyncFree,
		Desc:  fmt.Sprintf("kmeans invert_mapping copy, %d elements", n),
		Launch: sim.Launch{
			Prog: prog, GridCTAs: ctas, CTAThreads: ctaThreads,
			Params:   []uint32{uint32(n), in, out},
			MemWords: l.size(),
			Setup:    func(w []uint32) { copy(w[in:], inV()) },
		},
		Verify: func(w []uint32) error {
			inV := inV()
			return checkElems(w, "KMEANS: out", out, 0, n, func(i int) uint32 { return inV[i] })
		},
	}
}

// NewVecAdd builds c = a + b, grid-stride.
func NewVecAdd(n, ctas, ctaThreads int) *Kernel {
	var l layout
	a := l.array(n)
	bb := l.array(n)
	c := l.array(n)
	const (
		rN, rAB, rBB, rCB, rI, rStride, rX, rY = 10, 11, 12, 13, 2, 16, 4, 5
		pLoop                                  = 0
	)
	b := isa.NewBuilder("VECADD")
	b.LdParam(rN, 0)
	b.LdParam(rAB, 1)
	b.LdParam(rBB, 2)
	b.LdParam(rCB, 3)
	b.Mov(rI, isa.S(isa.SpecGTID))
	b.Mov(rStride, isa.S(isa.SpecNTID))
	b.Mul(rStride, isa.R(rStride), isa.S(isa.SpecNCTAID))
	b.While(pLoop, false,
		func() { b.Setp(isa.LT, pLoop, isa.R(rI), isa.R(rN)) },
		func() {
			b.Ld(rX, isa.R(rAB), isa.R(rI))
			b.Ld(rY, isa.R(rBB), isa.R(rI))
			b.Add(rX, isa.R(rX), isa.R(rY))
			b.St(isa.R(rCB), isa.R(rI), isa.R(rX))
			b.Add(rI, isa.R(rI), isa.R(rStride))
		})
	b.Exit()
	prog := b.MustBuild()

	return &Kernel{
		Name:  "VECADD",
		Class: ClassSyncFree,
		Desc:  fmt.Sprintf("vector add, %d elements", n),
		Launch: sim.Launch{
			Prog: prog, GridCTAs: ctas, CTAThreads: ctaThreads,
			Params:   []uint32{uint32(n), a, bb, c},
			MemWords: l.size(),
			Setup: func(w []uint32) {
				for i := 0; i < n; i++ {
					w[a+uint32(i)] = uint32(i)
					w[bb+uint32(i)] = uint32(2 * i)
				}
			},
		},
		Verify: func(w []uint32) error {
			return checkElems(w, "VECADD: c", c, 0, n, func(i int) uint32 { return uint32(3 * i) })
		},
	}
}

// NewReduce builds a per-CTA tree reduction with bar.sync between halving
// steps — barrier synchronization only, which must never register as
// busy-wait. ctaThreads must be a power of two.
func NewReduce(ctas, ctaThreads int) *Kernel {
	if ctaThreads&(ctaThreads-1) != 0 {
		panic("REDUCE: ctaThreads must be a power of two")
	}
	n := ctas * ctaThreads
	var l layout
	in := l.array(n)
	buf := l.array(n)
	out := l.array(ctas)

	const (
		rInB, rBufB, rOutB, rTid, rBase, rS = 10, 11, 12, 2, 4, 5
		rV, rW, rIdx, rCta                  = 6, 7, 8, 9
		pLoop, pHalf, pZero                 = 0, 1, 2
	)
	b := isa.NewBuilder("REDUCE")
	b.LdParam(rInB, 0)
	b.LdParam(rBufB, 1)
	b.LdParam(rOutB, 2)
	b.Mov(rTid, isa.S(isa.SpecTID))
	b.Mov(rCta, isa.S(isa.SpecCTAID))
	b.Mul(rBase, isa.R(rCta), isa.S(isa.SpecNTID))
	// buf[base+tid] = in[base+tid]
	b.Add(rIdx, isa.R(rBase), isa.R(rTid))
	b.Ld(rV, isa.R(rInB), isa.R(rIdx))
	b.St(isa.R(rBufB), isa.R(rIdx), isa.R(rV))
	b.Membar()
	b.Bar()
	b.Mov(rS, isa.S(isa.SpecNTID))
	b.DoWhile(pLoop, false,
		func() {
			b.Shr(rS, isa.R(rS), isa.I(1))
			b.Setp(isa.LT, pHalf, isa.R(rTid), isa.R(rS))
			b.If(pHalf, false, func() {
				b.Add(rIdx, isa.R(rBase), isa.R(rTid))
				b.Ld(rV, isa.R(rBufB), isa.R(rIdx))
				b.Add(rIdx, isa.R(rIdx), isa.R(rS))
				b.Ld(rW, isa.R(rBufB), isa.R(rIdx))
				b.Add(rV, isa.R(rV), isa.R(rW))
				b.Sub(rIdx, isa.R(rIdx), isa.R(rS))
				b.St(isa.R(rBufB), isa.R(rIdx), isa.R(rV))
			})
			b.Membar()
			b.Bar()
		},
		func() { b.Setp(isa.GT, pLoop, isa.R(rS), isa.I(1)) })
	b.Setp(isa.EQ, pZero, isa.R(rTid), isa.I(0))
	b.If(pZero, false, func() {
		b.Ld(rV, isa.R(rBufB), isa.R(rBase))
		b.St(isa.R(rOutB), isa.R(rCta), isa.R(rV))
	})
	b.Exit()
	prog := b.MustBuild()

	inV := sync.OnceValue(func() []uint32 { return draws(rng(37), n, 0, 1000) })
	return &Kernel{
		Name:  "REDUCE",
		Class: ClassSyncFree,
		Desc:  fmt.Sprintf("per-CTA tree reduction, %d CTAs × %d threads", ctas, ctaThreads),
		Launch: sim.Launch{
			Prog: prog, GridCTAs: ctas, CTAThreads: ctaThreads,
			Params:   []uint32{in, buf, out},
			MemWords: l.size(),
			Setup:    func(w []uint32) { copy(w[in:], inV()) },
		},
		Verify: func(w []uint32) error {
			inV := inV()
			return checkElems(w, "REDUCE: out", out, 0, ctas, func(c int) (sum uint32) {
				for _, v := range inV[c*ctaThreads : (c+1)*ctaThreads] {
					sum += v
				}
				return sum
			})
		},
	}
}

// NewMergeSortPass builds the MergeSort stand-in (paper Figure 14's MS):
// a strided pass whose only loop setp compares an induction variable
// incremented by 4096 against a limit that is a multiple of 256, so the
// least-significant-8-bit MODULO hash sees constant operands and falsely
// classifies the loop as spinning, while XOR hashing does not. Each
// thread copies the elements congruent to its gtid modulo 4096.
func NewMergeSortPass(n, ctas, ctaThreads int) *Kernel {
	const step = 4096
	if n%step != 0 {
		panic("MS: n must be a multiple of 4096")
	}
	var l layout
	in := l.array(n)
	out := l.array(n)
	const (
		rN, rInB, rOutB, rBase, rIdx, rV = 10, 11, 12, 2, 4, 5
		pLoop                            = 0
	)
	b := isa.NewBuilder("MS")
	b.LdParam(rN, 0)
	b.LdParam(rInB, 1)
	b.LdParam(rOutB, 2)
	// for base = 0; base < n; base += 4096 — the false-positive shape.
	b.For(rBase, isa.I(0), isa.R(rN), step, pLoop, func() {
		b.Mov(rIdx, isa.S(isa.SpecGTID))
		b.Add(rIdx, isa.R(rIdx), isa.R(rBase))
		b.Ld(rV, isa.R(rInB), isa.R(rIdx))
		b.St(isa.R(rOutB), isa.R(rIdx), isa.R(rV))
	})
	b.Exit()
	prog := b.MustBuild()

	threads := ctas * ctaThreads
	if threads > step {
		panic("MS: thread count must be ≤ 4096")
	}
	inV := sync.OnceValue(func() []uint32 { return draws(rng(41), n, 0, 1<<30) })
	return &Kernel{
		Name:  "MS",
		Class: ClassSyncFree,
		Desc:  fmt.Sprintf("merge-sort pass stand-in: stride-%d loop over %d elements", step, n),
		Launch: sim.Launch{
			Prog: prog, GridCTAs: ctas, CTAThreads: ctaThreads,
			Params:   []uint32{uint32(n), in, out},
			MemWords: l.size(),
			Setup:    func(w []uint32) { copy(w[in:], inV()) },
		},
		Verify: func(w []uint32) error {
			inV := inV()
			for base := 0; base < n; base += step {
				for t := 0; t < threads; t++ {
					i := base + t
					if w[out+uint32(i)] != inV[i] {
						return fmt.Errorf("MS: out[%d] = %d, want %d", i, w[out+uint32(i)], inV[i])
					}
				}
			}
			return nil
		},
	}
}

// NewHeartwall builds the HeartWall stand-in (paper Figure 14's HL): an
// accumulation loop whose induction variable advances by 256 per
// iteration — invisible to 8-bit (and 4-bit) MODULO hashing.
func NewHeartwall(n, ctas, ctaThreads int) *Kernel {
	const step = 256
	if n%step != 0 {
		panic("HL: n must be a multiple of 256")
	}
	var l layout
	in := l.array(n)
	out := l.array(ctas * ctaThreads)
	const (
		rN, rInB, rOutB, rOff, rIdx, rV, rAcc, rT = 10, 11, 12, 2, 4, 5, 6, 7
		pLoop                                     = 0
	)
	b := isa.NewBuilder("HL")
	b.LdParam(rN, 0)
	b.LdParam(rInB, 1)
	b.LdParam(rOutB, 2)
	b.Mov(rAcc, isa.I(0))
	b.Mov(rT, isa.S(isa.SpecGTID))
	b.And(rT, isa.R(rT), isa.I(step-1))
	b.For(rOff, isa.I(0), isa.R(rN), step, pLoop, func() {
		b.Add(rIdx, isa.R(rOff), isa.R(rT))
		b.Ld(rV, isa.R(rInB), isa.R(rIdx))
		b.Add(rAcc, isa.R(rAcc), isa.R(rV))
	})
	b.Mov(rIdx, isa.S(isa.SpecGTID))
	b.St(isa.R(rOutB), isa.R(rIdx), isa.R(rAcc))
	b.Exit()
	prog := b.MustBuild()

	inV := sync.OnceValue(func() []uint32 { return draws(rng(43), n, 0, 1000) })
	threads := ctas * ctaThreads
	return &Kernel{
		Name:  "HL",
		Class: ClassSyncFree,
		Desc:  fmt.Sprintf("heartwall stand-in: stride-%d accumulation over %d elements", step, n),
		Launch: sim.Launch{
			Prog: prog, GridCTAs: ctas, CTAThreads: ctaThreads,
			Params:   []uint32{uint32(n), in, out},
			MemWords: l.size(),
			Setup:    func(w []uint32) { copy(w[in:], inV()) },
		},
		Verify: func(w []uint32) error {
			inV := inV()
			return checkElems(w, "HL: out", out, 0, threads, func(t int) (sum uint32) {
				for off := 0; off < n; off += step {
					sum += inV[off+(t&(step-1))]
				}
				return sum
			})
		},
	}
}

// NewStencil builds a 3-point 1D stencil, grid-stride over the interior.
func NewStencil(n, ctas, ctaThreads int) *Kernel {
	var l layout
	in := l.array(n)
	out := l.array(n)
	const (
		rN, rInB, rOutB, rI, rStride, rA, rB, rC = 10, 11, 12, 2, 16, 4, 5, 6
		pLoop                                    = 0
	)
	b := isa.NewBuilder("STENCIL")
	b.LdParam(rN, 0)
	b.LdParam(rInB, 1)
	b.LdParam(rOutB, 2)
	b.Mov(rI, isa.S(isa.SpecGTID))
	b.Add(rI, isa.R(rI), isa.I(1))
	b.Mov(rStride, isa.S(isa.SpecNTID))
	b.Mul(rStride, isa.R(rStride), isa.S(isa.SpecNCTAID))
	b.Sub(rC, isa.R(rN), isa.I(1))
	b.While(pLoop, false,
		func() { b.Setp(isa.LT, pLoop, isa.R(rI), isa.R(rC)) },
		func() {
			b.Sub(rA, isa.R(rI), isa.I(1))
			b.Ld(rA, isa.R(rInB), isa.R(rA))
			b.Ld(rB, isa.R(rInB), isa.R(rI))
			b.Add(rA, isa.R(rA), isa.R(rB))
			b.Add(rB, isa.R(rI), isa.I(1))
			b.Ld(rB, isa.R(rInB), isa.R(rB))
			b.Add(rA, isa.R(rA), isa.R(rB))
			b.Div(rA, isa.R(rA), isa.I(3))
			b.St(isa.R(rOutB), isa.R(rI), isa.R(rA))
			b.Add(rI, isa.R(rI), isa.R(rStride))
		})
	b.Exit()
	prog := b.MustBuild()

	inV := sync.OnceValue(func() []uint32 { return draws(rng(47), n, 0, 10000) })
	return &Kernel{
		Name:  "STENCIL",
		Class: ClassSyncFree,
		Desc:  fmt.Sprintf("3-point stencil, %d elements", n),
		Launch: sim.Launch{
			Prog: prog, GridCTAs: ctas, CTAThreads: ctaThreads,
			Params:   []uint32{uint32(n), in, out},
			MemWords: l.size(),
			Setup:    func(w []uint32) { copy(w[in:], inV()) },
		},
		Verify: func(w []uint32) error {
			inV := inV()
			return checkElems(w, "STENCIL: out", out, 1, n-1, func(i int) uint32 { return (inV[i-1] + inV[i] + inV[i+1]) / 3 })
		},
	}
}
