package kernels

import (
	"fmt"
	"sync"

	"warpsched/internal/isa"
	"warpsched/internal/sim"
)

// NewBHTB builds the BarnesHut Tree Building kernel (paper §V, from
// Burtscher & Pingali [6]): bodies are inserted into tree leaf cells by
// locking the leaf pointer itself — atomicCAS swaps the observed child
// value for the LOCKED sentinel, the insertion links the body, and a
// plain store releases. A body index that does not advance on failure
// makes the outer loop the spin loop, and a CTA-wide barrier per attempt
// throttles contention — the structure the paper credits for BOWS's
// minimal impact on TB.
//
// depth is the tree depth: 2^depth leaf cells. bodies must be ≥ the
// thread count so every thread has work.
func NewBHTB(bodies, depth, ctas, ctaThreads int) *Kernel {
	leaves := 1 << depth
	const (
		empty  = 0xFFFFFFFF // -1: end of chain
		locked = 0xFFFFFFFE // -2: cell locked
	)
	var l layout
	keys := l.array(bodies)
	l.alignLine()
	nodes := l.array(2 * leaves) // internal-node array touched on the walk
	l.alignLine()
	child := l.array(leaves) // leaf cell heads (lock word = the pointer)
	l.alignLine()
	next := l.array(bodies)
	l.alignLine()
	cnt := l.array(leaves) // per-cell body count (critical-section update)

	const (
		rN, rD, rKeysB, rNodesB, rChildB, rNextB = 10, 11, 12, 13, 14, 15
		rStride, rI, rKey, rNode, rLvl, rBit     = 16, 2, 4, 5, 6, 7
		rLeaf, rCh, rCas, rTmp, rCntB            = 8, 9, 17, 18, 19
		pLoop, pWork, pFree, pGot, pLvl          = 0, 1, 2, 3, 4
	)

	b := isa.NewBuilder("TB")
	b.LdParam(rN, 0)
	// The tree depth is consumed at build time (the walk below is unrolled
	// over `depth` levels), so %r11 is never read by the instruction
	// stream. The load stays for parameter-layout fidelity with the CUDA
	// kernel, which does read its depth argument; nolint silences the
	// dead-write finding without perturbing the golden cycle counts.
	b.LdParam(rD, 1)
	b.AnnotateLast(isa.AnnNoLint)
	b.LdParam(rKeysB, 2)
	b.LdParam(rNodesB, 3)
	b.LdParam(rChildB, 4)
	b.LdParam(rNextB, 5)
	b.LdParam(rCntB, 6)
	b.Mov(rI, isa.S(isa.SpecGTID))
	b.Mov(rStride, isa.S(isa.SpecNTID))
	b.Mul(rStride, isa.R(rStride), isa.S(isa.SpecNCTAID))
	b.DoWhile(pLoop, false,
		func() {
			// Throttle: all warps of the CTA rendezvous between attempts.
			b.Bar()
			b.Setp(isa.LT, pWork, isa.R(rI), isa.R(rN))
			b.If(pWork, false, func() {
				b.Ld(rKey, isa.R(rKeysB), isa.R(rI))
				// Walk the tree: one node load per level (useful work).
				// Unrolled (depth is a launch constant) so the busy-wait
				// path stays within DDOS's l=8 setp history window, as in
				// the real TB kernel whose retry path re-executes only
				// the loop-head tests.
				b.Mov(rNode, isa.I(1))
				for lvl := 0; lvl < depth; lvl++ {
					b.Shr(rBit, isa.R(rKey), isa.I(int32(lvl)))
					b.And(rBit, isa.R(rBit), isa.I(1))
					b.Shl(rNode, isa.R(rNode), isa.I(1))
					b.Or(rNode, isa.R(rNode), isa.R(rBit))
					b.Ld(rTmp, isa.R(rNodesB), isa.R(rNode))
				}
				b.Sub(rLeaf, isa.R(rNode), isa.I(int32(leaves)))
				// Try-lock the leaf pointer (skip if already locked).
				b.Annotate(isa.AnnSync, func() {
					b.LdVol(rCh, isa.R(rChildB), isa.R(rLeaf))
					b.Setp(isa.NE, pFree, isa.R(rCh), isa.I(-2))
				})
				b.If(pFree, false, func() {
					b.Annotate(isa.AnnSync, func() {
						b.AtomCAS(rCas, isa.R(rChildB), isa.R(rLeaf), isa.R(rCh), isa.I(-2))
						b.AnnotateLast(isa.AnnLockAcquire)
						b.Setp(isa.EQ, pGot, isa.R(rCas), isa.R(rCh))
					})
					b.If(pGot, false, func() {
						// Insert: link body at the chain head, then update
						// the cell's aggregate (mass / center-of-mass in
						// the real TB) — the long critical section that
						// keeps contended cells visibly LOCKED to
						// retrying warps.
						b.St(isa.R(rNextB), isa.R(rI), isa.R(rCh))
						b.LdVol(rTmp, isa.R(rNodesB), isa.R(rLeaf))
						b.Add(rTmp, isa.R(rTmp), isa.R(rKey))
						// The two aggregate updates below are protected by
						// the per-leaf try-lock, but warprace cannot credit
						// the lock: the CAS success test compares two
						// registers (old head vs. the CAS result) and the
						// lockset classifier only resolves
						// register-vs-immediate predicates.
						b.St(isa.R(rNodesB), isa.R(rLeaf), isa.R(rTmp))
						b.NoLintLast("race")
						b.LdVol(rTmp, isa.R(rCntB), isa.R(rLeaf))
						b.Add(rTmp, isa.R(rTmp), isa.I(1))
						b.St(isa.R(rCntB), isa.R(rLeaf), isa.R(rTmp))
						b.NoLintLast("race")
						b.Annotate(isa.AnnSync, func() {
							b.Membar()
							// Release by publishing the new head.
							b.St(isa.R(rChildB), isa.R(rLeaf), isa.R(rI))
							b.AnnotateLast(isa.AnnLockRelease)
						})
						// Advance to this thread's next body.
						b.Add(rI, isa.R(rI), isa.R(rStride))
					})
				})
			})
		},
		func() {
			b.Annotate(isa.AnnSync, func() {
				b.Setp(isa.LT, pLoop, isa.R(rI), isa.R(rN))
			})
		})
	b.AnnotateLast(isa.AnnSync)
	b.Exit()
	prog := b.MustBuild()

	if bodies < ctas*ctaThreads {
		panic(fmt.Sprintf("TB: bodies (%d) must be ≥ thread count (%d)", bodies, ctas*ctaThreads))
	}

	keyV := sync.OnceValue(func() []uint32 { return draws(rng(23), bodies, 0, 1<<30) })
	leafOf := func(key uint32) uint32 {
		node := uint32(1)
		for lvl := 0; lvl < depth; lvl++ {
			node = node<<1 | (key >> lvl & 1)
		}
		return node - uint32(leaves)
	}

	return &Kernel{
		Name:  "TB",
		Class: ClassSync,
		Desc:  fmt.Sprintf("BarnesHut tree build: %d bodies into %d leaf cells, barrier-throttled", bodies, leaves),
		Launch: sim.Launch{
			Prog:       prog,
			GridCTAs:   ctas,
			CTAThreads: ctaThreads,
			Params:     []uint32{uint32(bodies), uint32(depth), keys, nodes, child, next, cnt},
			MemWords:   l.size(),
			Setup: func(w []uint32) {
				copy(w[keys:], keyV())
				for c := 0; c < leaves; c++ {
					w[child+uint32(c)] = empty
				}
				for n := 0; n < 2*leaves; n++ {
					w[nodes+uint32(n)] = uint32(n)
				}
			},
		},
		Verify: func(w []uint32) error {
			keyV := keyV()
			seen := make([]bool, bodies)
			total := 0
			for c := 0; c < leaves; c++ {
				cur := w[child+uint32(c)]
				if cur == locked {
					return fmt.Errorf("TB: leaf %d still locked", c)
				}
				steps := 0
				for cur != empty {
					if cur >= uint32(bodies) {
						return fmt.Errorf("TB: leaf %d: bad body index %d", c, cur)
					}
					if seen[cur] {
						return fmt.Errorf("TB: body %d linked twice", cur)
					}
					seen[cur] = true
					if got := leafOf(keyV[cur]); got != uint32(c) {
						return fmt.Errorf("TB: body %d in leaf %d, want %d", cur, c, got)
					}
					total++
					cur = w[next+cur]
					if steps++; steps > bodies {
						return fmt.Errorf("TB: cycle in leaf %d chain", c)
					}
				}
			}
			if total != bodies {
				return fmt.Errorf("TB: %d bodies linked, want %d", total, bodies)
			}
			// The locked aggregate update must agree with the chains.
			for c := 0; c < leaves; c++ {
				chainLen := uint32(0)
				for cur := w[child+uint32(c)]; cur != empty; cur = w[next+cur] {
					chainLen++
				}
				if got := w[cnt+uint32(c)]; got != chainLen {
					return fmt.Errorf("TB: leaf %d count %d != chain length %d (lost update)", c, got, chainLen)
				}
			}
			return nil
		},
	}
}

// NewBHST builds the BarnesHut Sort kernel (paper §V, Figure 6c): a
// wait-and-signal pattern over a complete binary tree of m = 2^d − 1
// nodes. Like the real BarnesHut kernels, the launch must be
// cooperative: every CTA has to be co-resident (CTAs ≤ SMs ×
// MaxCTAsPerSM), because threads of early CTAs wait on signals produced
// by threads of late ones. Threads poll cells in descending k order; a cell whose start
// offset has been signalled by its parent propagates offsets to its
// children (internal nodes) or writes its position in the sorted output
// (leaves). A cell whose start is not yet set simply loops — the Figure
// 6c busy-wait that never blocks progress of ready lanes.
func NewBHST(m, ctas, ctaThreads int) *Kernel {
	if (m+1)&m != 0 {
		panic(fmt.Sprintf("ST: m=%d must be 2^d − 1", m))
	}
	threads := ctas * ctaThreads
	if m < threads {
		panic(fmt.Sprintf("ST: m=%d must be ≥ thread count %d", m, threads))
	}
	leafStart := m / 2 // ids ≥ leafStart are leaves
	nLeaves := m - leafStart

	var l layout
	start := l.array(m)
	l.alignLine()
	size := l.array(m)
	l.alignLine()
	out := l.array(nLeaves)
	aux := l.array(m)

	const (
		rM, rStartB, rSizeB, rOutB, rAuxB = 10, 11, 12, 13, 14
		rStride, rK, rID, rS, rLeafStart  = 16, 2, 4, 5, 6
		rL, rSzL, rTmp, rTmp2             = 7, 8, 9, 15
		pLoop, pReady, pLeaf              = 0, 1, 2
	)

	b := isa.NewBuilder("ST")
	b.LdParam(rM, 0)
	b.LdParam(rStartB, 1)
	b.LdParam(rSizeB, 2)
	b.LdParam(rOutB, 3)
	b.LdParam(rAuxB, 4)
	b.Mov(rStride, isa.S(isa.SpecNTID))
	b.Mul(rStride, isa.R(rStride), isa.S(isa.SpecNCTAID))
	b.Mov(rLeafStart, isa.I(int32(leafStart)))
	// k runs from m-1-gtid downward; the node id is m-1-k.
	b.Mov(rTmp, isa.S(isa.SpecGTID))
	b.Sub(rK, isa.R(rM), isa.I(1))
	b.Sub(rK, isa.R(rK), isa.R(rTmp))
	b.Mov(rID, isa.S(isa.SpecGTID))
	b.DoWhile(pLoop, false,
		func() {
			b.Annotate(isa.AnnSync, func() {
				b.LdVol(rS, isa.R(rStartB), isa.R(rID))
				b.Setp(isa.GE, pReady, isa.R(rS), isa.I(0))
			})
			b.IfA(pReady, false, isa.AnnWaitCheck|isa.AnnSync, func() {
				// Useful per-node work.
				b.Mul(rTmp, isa.R(rS), isa.I(2))
				b.Add(rTmp, isa.R(rTmp), isa.R(rID))
				b.St(isa.R(rAuxB), isa.R(rID), isa.R(rTmp))
				b.Setp(isa.GE, pLeaf, isa.R(rID), isa.R(rLeafStart))
				b.IfElse(pLeaf, false,
					func() {
						// Leaf: place in the sorted output. Each leaf's start
						// offset is unique (the offsets are a prefix sum of
						// the subtree sizes), so no two threads store to the
						// same out[s] — a fact about the signalled values
						// that warprace's affine address domain cannot see.
						b.Sub(rTmp, isa.R(rID), isa.R(rLeafStart))
						b.St(isa.R(rOutB), isa.R(rS), isa.R(rTmp))
						b.NoLintLast("race")
					},
					func() {
						// Internal: signal children (left gets s, right
						// gets s + size(left)).
						b.Mul(rL, isa.R(rID), isa.I(2))
						b.Add(rL, isa.R(rL), isa.I(1))
						b.Ld(rSzL, isa.R(rSizeB), isa.R(rL))
						b.St(isa.R(rStartB), isa.R(rL), isa.R(rS))
						b.Add(rTmp, isa.R(rS), isa.R(rSzL))
						b.Add(rTmp2, isa.R(rL), isa.I(1))
						b.St(isa.R(rStartB), isa.R(rTmp2), isa.R(rTmp))
					})
				// Move to this thread's next cell.
				b.Sub(rK, isa.R(rK), isa.R(rStride))
				b.Add(rID, isa.R(rID), isa.R(rStride))
			})
		},
		func() {
			b.Annotate(isa.AnnSync, func() {
				b.Setp(isa.GE, pLoop, isa.R(rK), isa.I(0))
			})
		})
	b.AnnotateLast(isa.AnnSync)
	b.Exit()
	prog := b.MustBuild()

	// Subtree sizes (leaf count under each node).
	sizeV := sync.OnceValue(func() []uint32 {
		sizeV := make([]uint32, m)
		for id := m - 1; id >= 0; id-- {
			if id >= leafStart {
				sizeV[id] = 1
			} else {
				sizeV[id] = sizeV[2*id+1] + sizeV[2*id+2]
			}
		}
		return sizeV
	})

	return &Kernel{
		Name:  "ST",
		Class: ClassSync,
		Desc:  fmt.Sprintf("BarnesHut sort: wait-and-signal over %d tree nodes", m),
		Launch: sim.Launch{
			Prog:       prog,
			GridCTAs:   ctas,
			CTAThreads: ctaThreads,
			Params:     []uint32{uint32(m), start, size, out, aux},
			MemWords:   l.size(),
			Setup: func(w []uint32) {
				for i := 0; i < m; i++ {
					w[start+uint32(i)] = 0xFFFFFFFF // -1: not signalled
				}
				w[start] = 0 // root
				copy(w[size:], sizeV())
			},
		},
		Verify: func(w []uint32) error {
			// In-order propagation places leaf (leafStart+i) at output i.
			if err := checkElems(w, "ST: out", out, 0, nLeaves, func(i int) uint32 { return uint32(i) }); err != nil {
				return err
			}
			for id := 0; id < m; id++ {
				if int32(w[start+uint32(id)]) < 0 {
					return fmt.Errorf("ST: node %d never signalled", id)
				}
			}
			return nil
		},
	}
}
