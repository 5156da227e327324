package kernels

// Additional synchronization-free kernels rounding the Rodinia stand-in
// suite out to the paper's 14 benchmarks. Each exercises a loop or
// divergence shape DDOS must classify correctly: data-dependent inner
// loops (BFS), barrier-phased dynamic programming (PATHFINDER, LUD,
// GAUSSIAN), reduction via atomics that are *not* locks (NN), and
// conditional stencils (SRAD).

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"warpsched/internal/isa"
	"warpsched/internal/sim"
)

// NewBFS builds a frontier-based breadth-first search over a random
// sparse graph inside one CTA (bar.sync separates levels, a global
// changed-counter read decides termination). The neighbour scan is a
// variable-trip-count inner loop whose bounds change per node — a shape
// that must never register as spinning. The per-level outer loop *reads
// a value written by other threads* (the changed flag), making it the
// closest sync-free cousin of a wait loop.
func NewBFS(nodes, degree, ctaThreads int) *Kernel {
	if nodes%ctaThreads != 0 {
		panic("BFS: nodes must be a multiple of ctaThreads")
	}
	edges := nodes * degree
	var l layout
	rowptr := l.array(nodes + 1)
	cols := l.array(edges)
	l.alignLine()
	level := l.array(nodes)
	changed := l.array(1)
	l.alignLine()

	const (
		rN, rRowB, rColB, rLevB, rChgB = 10, 11, 12, 13, 14
		rTid, rNode, rL, rEi, rEnd     = 2, 4, 5, 6, 7
		rNb, rCur, rTmp, rStride, rChg = 8, 9, 15, 16, 17
		pOuter, pMine, pEdge, pUnseen  = 0, 1, 2, 3
	)

	b := isa.NewBuilder("BFS")
	b.LdParam(rN, 0)
	b.LdParam(rRowB, 1)
	b.LdParam(rColB, 2)
	b.LdParam(rLevB, 3)
	b.LdParam(rChgB, 4)
	b.Mov(rTid, isa.S(isa.SpecTID))
	b.Mov(rStride, isa.S(isa.SpecNTID))
	b.Mov(rL, isa.I(0)) // current level
	b.DoWhile(pOuter, false,
		func() {
			// Expand every frontier node owned by this thread.
			b.Mov(rNode, isa.R(rTid))
			b.While(pMine, false,
				func() { b.Setp(isa.LT, pMine, isa.R(rNode), isa.R(rN)) },
				func() {
					b.Ld(rCur, isa.R(rLevB), isa.R(rNode))
					b.Setp(isa.EQ, pMine, isa.R(rCur), isa.R(rL))
					b.If(pMine, false, func() {
						b.Ld(rEi, isa.R(rRowB), isa.R(rNode))
						b.Add(rTmp, isa.R(rNode), isa.I(1))
						b.Ld(rEnd, isa.R(rRowB), isa.R(rTmp))
						b.While(pEdge, false,
							func() { b.Setp(isa.LT, pEdge, isa.R(rEi), isa.R(rEnd)) },
							func() {
								b.Ld(rNb, isa.R(rColB), isa.R(rEi))
								b.LdVol(rCur, isa.R(rLevB), isa.R(rNb))
								b.Setp(isa.EQ, pUnseen, isa.R(rCur), isa.I(-1))
								b.If(pUnseen, false, func() {
									b.Add(rTmp, isa.R(rL), isa.I(1))
									// Benign same-value race: several parents
									// may discover the same neighbour in one
									// level, but all of them store the
									// identical value L+1 (classic
									// level-synchronous BFS). warprace has no
									// notion of value-equal writes.
									b.St(isa.R(rLevB), isa.R(rNb), isa.R(rTmp))
									b.NoLintLast("race")
									b.AtomAdd(rCur, isa.R(rChgB), isa.I(0), isa.I(1))
								})
								b.Add(rEi, isa.R(rEi), isa.I(1))
							})
					})
					// re-evaluate the thread's loop condition predicate
					b.Add(rNode, isa.R(rNode), isa.R(rStride))
				})
			b.Membar()
			b.Bar()
			b.LdVol(rChg, isa.R(rChgB), isa.I(0))
			// Drain the read before the barrier: the reset store below
			// must not be serviced while this load is still in flight
			// (barriers order execution, not memory).
			b.Membar()
			b.Bar()
			// Thread 0 resets the counter for the next level.
			b.Setp(isa.EQ, pMine, isa.R(rTid), isa.I(0))
			b.If(pMine, false, func() {
				b.St(isa.R(rChgB), isa.I(0), isa.I(0))
			})
			b.Membar()
			b.Bar()
			b.Add(rL, isa.R(rL), isa.I(1))
		},
		func() { b.Setp(isa.GT, pOuter, isa.R(rChg), isa.I(0)) })
	b.Exit()
	prog := b.MustBuild()

	// The graph and its reference levels.
	data := sync.OnceValues(func() ([][]uint32, []int32) {
		// Random graph (deterministic), guaranteed connected via a ring.
		r := rng(53)
		adj := make([][]uint32, nodes)
		for v := 0; v < nodes; v++ {
			adj[v] = append(adj[v], uint32((v+1)%nodes))
			for d := 1; d < degree; d++ {
				adj[v] = append(adj[v], uint32(r.Intn(nodes)))
			}
		}
		// Reference BFS from node 0.
		want := make([]int32, nodes)
		for i := range want {
			want[i] = -1
		}
		want[0] = 0
		queue := []int{0}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, nb := range adj[v] {
				if want[nb] == -1 {
					want[nb] = want[v] + 1
					queue = append(queue, int(nb))
				}
			}
		}
		return adj, want
	})

	return &Kernel{
		Name:  "BFS",
		Class: ClassSyncFree,
		Desc:  fmt.Sprintf("frontier BFS: %d nodes, degree %d, one CTA", nodes, degree),
		Launch: sim.Launch{
			Prog: prog, GridCTAs: 1, CTAThreads: ctaThreads,
			Params:   []uint32{uint32(nodes), rowptr, cols, level, changed},
			MemWords: l.size(),
			Setup: func(w []uint32) {
				adj, _ := data()
				e := uint32(0)
				for v := 0; v < nodes; v++ {
					w[rowptr+uint32(v)] = e
					for _, nb := range adj[v] {
						w[cols+e] = nb
						e++
					}
				}
				w[rowptr+uint32(nodes)] = e
				for v := 0; v < nodes; v++ {
					w[level+uint32(v)] = 0xFFFFFFFF
				}
				w[level] = 0
				w[changed] = 1 // enter the first level
			},
		},
		Verify: func(w []uint32) error {
			// The GPU's level assignment may differ from serial BFS when a
			// node is reachable at the same level via several parents, but
			// the level VALUES must match exactly (BFS level is unique).
			_, want := data()
			return checkElems(w, "BFS: level", level, 0, nodes, func(v int) int32 { return want[v] })
		},
	}
}

// NewHotspot builds a HotSpot-like 2D 5-point stencil step on an
// integer temperature grid.
func NewHotspot(dim, ctas, ctaThreads int) *Kernel {
	n := dim * dim
	var l layout
	in := l.array(n)
	out := l.array(n)

	const (
		rDim, rInB, rOutB, rI, rStride = 10, 11, 12, 2, 16
		rX, rY, rC, rAcc, rTmp, rN     = 4, 5, 6, 7, 8, 9
		pLoop, pIn                     = 0, 1
	)

	b := isa.NewBuilder("HOTSPOT")
	b.LdParam(rDim, 0)
	b.LdParam(rInB, 1)
	b.LdParam(rOutB, 2)
	b.Mul(rN, isa.R(rDim), isa.R(rDim))
	b.Mov(rI, isa.S(isa.SpecGTID))
	b.Mov(rStride, isa.S(isa.SpecNTID))
	b.Mul(rStride, isa.R(rStride), isa.S(isa.SpecNCTAID))
	b.While(pLoop, false,
		func() { b.Setp(isa.LT, pLoop, isa.R(rI), isa.R(rN)) },
		func() {
			b.Rem(rX, isa.R(rI), isa.R(rDim))
			b.Div(rY, isa.R(rI), isa.R(rDim))
			b.Ld(rC, isa.R(rInB), isa.R(rI))
			// Interior cells diffuse; boundary copies through.
			b.Setp(isa.GT, pIn, isa.R(rX), isa.I(0))
			b.If(pIn, false, func() {
				b.Add(rTmp, isa.R(rX), isa.I(1))
				b.Setp(isa.LT, pIn, isa.R(rTmp), isa.R(rDim))
				b.If(pIn, false, func() {
					b.Setp(isa.GT, pIn, isa.R(rY), isa.I(0))
					b.If(pIn, false, func() {
						b.Add(rTmp, isa.R(rY), isa.I(1))
						b.Setp(isa.LT, pIn, isa.R(rTmp), isa.R(rDim))
						b.If(pIn, false, func() {
							// acc = left + right + up + down
							b.Sub(rTmp, isa.R(rI), isa.I(1))
							b.Ld(rAcc, isa.R(rInB), isa.R(rTmp))
							b.Add(rTmp, isa.R(rI), isa.I(1))
							b.Ld(rTmp, isa.R(rInB), isa.R(rTmp))
							b.Add(rAcc, isa.R(rAcc), isa.R(rTmp))
							b.Sub(rTmp, isa.R(rI), isa.R(rDim))
							b.Ld(rTmp, isa.R(rInB), isa.R(rTmp))
							b.Add(rAcc, isa.R(rAcc), isa.R(rTmp))
							b.Add(rTmp, isa.R(rI), isa.R(rDim))
							b.Ld(rTmp, isa.R(rInB), isa.R(rTmp))
							b.Add(rAcc, isa.R(rAcc), isa.R(rTmp))
							// c += (acc - 4c) / 8
							b.Mul(rTmp, isa.R(rC), isa.I(4))
							b.Sub(rAcc, isa.R(rAcc), isa.R(rTmp))
							b.Div(rAcc, isa.R(rAcc), isa.I(8))
							b.Add(rC, isa.R(rC), isa.R(rAcc))
						})
					})
				})
			})
			// in and out are distinct arrays, and the neighbour loads fold
			// the dim scalar (param 0) into the address, so the prover's
			// single-param-base disjointness rule cannot separate them.
			b.St(isa.R(rOutB), isa.R(rI), isa.R(rC))
			b.NoLintLast("race")
			b.Add(rI, isa.R(rI), isa.R(rStride))
		})
	b.Exit()
	prog := b.MustBuild()

	inV := sync.OnceValue(func() []uint32 { return draws(rng(59), n, 300, 700) })
	ref := func(inV []uint32, i int) uint32 {
		x, y := i%dim, i/dim
		c := int32(inV[i])
		if x == 0 || x == dim-1 || y == 0 || y == dim-1 {
			return uint32(c)
		}
		acc := int32(inV[i-1]) + int32(inV[i+1]) + int32(inV[i-dim]) + int32(inV[i+dim])
		return uint32(c + (acc-4*c)/8)
	}

	return &Kernel{
		Name:  "HOTSPOT",
		Class: ClassSyncFree,
		Desc:  fmt.Sprintf("hotspot 5-point diffusion step, %dx%d grid", dim, dim),
		Launch: sim.Launch{
			Prog: prog, GridCTAs: ctas, CTAThreads: ctaThreads,
			Params:   []uint32{uint32(dim), in, out},
			MemWords: l.size(),
			Setup:    func(w []uint32) { copy(w[in:], inV()) },
		},
		Verify: func(w []uint32) error {
			inV := inV()
			return checkElems(w, "HOTSPOT: out", out, 0, n, func(i int) uint32 { return ref(inV, i) })
		},
	}
}

// NewPathfinder builds a PathFinder-like dynamic program: R rows of
// minimum-path cost, barrier-synchronized per row, one CTA wide.
func NewPathfinder(rows, ctaThreads int) *Kernel {
	width := ctaThreads
	var l layout
	data := l.array(rows * width)
	bufA := l.array(width)
	bufB := l.array(width)

	const (
		rRows, rDataB, rA, rB, rW     = 10, 11, 12, 13, 14
		rTid, rRow, rBest, rTmp, rIdx = 2, 4, 5, 6, 7
		rSrc, rDst, rSwap             = 8, 9, 15
		pLoop, pEdge                  = 0, 1
	)

	b := isa.NewBuilder("PATHFINDER")
	b.LdParam(rRows, 0)
	b.LdParam(rDataB, 1)
	b.LdParam(rA, 2)
	b.LdParam(rB, 3)
	b.Mov(rW, isa.S(isa.SpecNTID))
	b.Mov(rTid, isa.S(isa.SpecTID))
	// buf[tid] = data[0][tid]
	b.Ld(rTmp, isa.R(rDataB), isa.R(rTid))
	b.St(isa.R(rA), isa.R(rTid), isa.R(rTmp))
	b.Membar()
	b.Bar()
	b.Mov(rSrc, isa.R(rA))
	b.Mov(rDst, isa.R(rB))
	b.For(rRow, isa.I(1), isa.R(rRows), 1, pLoop, func() {
		// best = src[tid]
		b.Ld(rBest, isa.R(rSrc), isa.R(rTid))
		// left neighbour
		b.Setp(isa.GT, pEdge, isa.R(rTid), isa.I(0))
		b.If(pEdge, false, func() {
			b.Sub(rTmp, isa.R(rTid), isa.I(1))
			b.Ld(rTmp, isa.R(rSrc), isa.R(rTmp))
			b.Min(rBest, isa.R(rBest), isa.R(rTmp))
		})
		// right neighbour
		b.Add(rTmp, isa.R(rTid), isa.I(1))
		b.Setp(isa.LT, pEdge, isa.R(rTmp), isa.R(rW))
		b.If(pEdge, false, func() {
			b.Add(rTmp, isa.R(rTid), isa.I(1))
			b.Ld(rTmp, isa.R(rSrc), isa.R(rTmp))
			b.Min(rBest, isa.R(rBest), isa.R(rTmp))
		})
		// dst[tid] = best + data[row][tid]
		b.Mul(rIdx, isa.R(rRow), isa.R(rW))
		b.Add(rIdx, isa.R(rIdx), isa.R(rTid))
		b.Ld(rTmp, isa.R(rDataB), isa.R(rIdx))
		b.Add(rBest, isa.R(rBest), isa.R(rTmp))
		// src and dst ping-pong between bufA and bufB, so within any one
		// barrier interval the loads and this store hit distinct arrays.
		// The swap joins collapse both registers to one abstract value,
		// which warprace cannot tell apart per interval.
		b.St(isa.R(rDst), isa.R(rTid), isa.R(rBest))
		b.NoLintLast("race")
		b.Membar()
		b.Bar()
		// swap buffers
		b.Mov(rSwap, isa.R(rSrc))
		b.Mov(rSrc, isa.R(rDst))
		b.Mov(rDst, isa.R(rSwap))
	})
	b.Exit()
	prog := b.MustBuild()

	// The cost rows and the reference DP's last row.
	rowsV := sync.OnceValues(func() ([]uint32, []uint32) {
		dataV := draws(rng(61), rows*width, 0, 100)
		cur := make([]uint32, width)
		copy(cur, dataV[:width])
		for row := 1; row < rows; row++ {
			next := make([]uint32, width)
			for j := 0; j < width; j++ {
				best := cur[j]
				if j > 0 && cur[j-1] < best {
					best = cur[j-1]
				}
				if j+1 < width && cur[j+1] < best {
					best = cur[j+1]
				}
				next[j] = best + dataV[row*width+j]
			}
			cur = next
		}
		return dataV, cur
	})

	return &Kernel{
		Name:  "PATHFINDER",
		Class: ClassSyncFree,
		Desc:  fmt.Sprintf("pathfinder DP: %d rows x %d columns", rows, width),
		Launch: sim.Launch{
			Prog: prog, GridCTAs: 1, CTAThreads: ctaThreads,
			Params:   []uint32{uint32(rows), data, bufA, bufB},
			MemWords: l.size(),
			Setup: func(w []uint32) {
				dataV, _ := rowsV()
				copy(w[data:], dataV)
			},
		},
		Verify: func(w []uint32) error {
			_, cur := rowsV()
			// rows-1 iterations: the last write lands in bufB when rows-1
			// is odd, bufA when even.
			buf := bufB
			if (rows-1)%2 == 0 {
				buf = bufA
			}
			return checkElems(w, "PATHFINDER: cost", buf, 0, width, func(j int) uint32 { return cur[j] })
		},
	}
}

// NewBackprop builds a BackProp-like dense layer: out[j] =
// (Σ_i in[i]·w[i][j]) >> 8, one output neuron per thread.
func NewBackprop(inputs, outputs, ctas, ctaThreads int) *Kernel {
	if outputs != ctas*ctaThreads {
		panic("BACKPROP: outputs must equal thread count")
	}
	var l layout
	in := l.array(inputs)
	wgt := l.array(inputs * outputs)
	out := l.array(outputs)

	const (
		rIn, rInB, rWB, rOutB, rJ     = 10, 11, 12, 13, 2
		rAcc, rI, rTmp, rV, rOutCount = 4, 5, 6, 7, 14
		pLoop                         = 0
	)

	b := isa.NewBuilder("BACKPROP")
	b.LdParam(rIn, 0)
	b.LdParam(rInB, 1)
	b.LdParam(rWB, 2)
	b.LdParam(rOutB, 3)
	b.LdParam(rOutCount, 4)
	b.Mov(rJ, isa.S(isa.SpecGTID))
	b.Mov(rAcc, isa.I(0))
	b.For(rI, isa.I(0), isa.R(rIn), 1, pLoop, func() {
		b.Ld(rV, isa.R(rInB), isa.R(rI))
		// w[i][j] at i*outputs + j
		b.Mul(rTmp, isa.R(rI), isa.R(rOutCount))
		b.Add(rTmp, isa.R(rTmp), isa.R(rJ))
		b.Ld(rTmp, isa.R(rWB), isa.R(rTmp))
		b.Mul(rV, isa.R(rV), isa.R(rTmp))
		b.Add(rAcc, isa.R(rAcc), isa.R(rV))
	})
	b.Shr(rAcc, isa.R(rAcc), isa.I(8))
	b.St(isa.R(rOutB), isa.R(rJ), isa.R(rAcc))
	b.Exit()
	prog := b.MustBuild()

	// The inputs and the weights.
	data := sync.OnceValues(func() ([]uint32, []uint32) {
		r := rng(67)
		return draws(r, inputs, 0, 64), draws(r, inputs*outputs, 0, 64)
	})

	return &Kernel{
		Name:  "BACKPROP",
		Class: ClassSyncFree,
		Desc:  fmt.Sprintf("dense layer forward pass: %d inputs -> %d outputs", inputs, outputs),
		Launch: sim.Launch{
			Prog: prog, GridCTAs: ctas, CTAThreads: ctaThreads,
			Params:   []uint32{uint32(inputs), in, wgt, out, uint32(outputs)},
			MemWords: l.size(),
			Setup: func(w []uint32) {
				inV, wV := data()
				copy(w[in:], inV)
				copy(w[wgt:], wV)
			},
		},
		Verify: func(w []uint32) error {
			inV, wV := data()
			return checkElems(w, "BACKPROP: out", out, 0, outputs, func(j int) uint32 {
				var acc uint32
				for i := 0; i < inputs; i++ {
					acc += inV[i] * wV[i*outputs+j]
				}
				return acc >> 8
			})
		},
	}
}

// NewSRAD builds an SRAD-like conditional stencil: cells update with a
// data-dependent branch (the diffusion coefficient saturates), giving
// per-lane divergence inside a regular loop.
func NewSRAD(n, ctas, ctaThreads int) *Kernel {
	var l layout
	in := l.array(n)
	out := l.array(n)

	const (
		rN, rInB, rOutB, rI, rStride = 10, 11, 12, 2, 16
		rC, rL, rR, rG, rTmp         = 4, 5, 6, 7, 8
		pLoop, pSat                  = 0, 1
	)

	b := isa.NewBuilder("SRAD")
	b.LdParam(rN, 0)
	b.LdParam(rInB, 1)
	b.LdParam(rOutB, 2)
	b.Mov(rI, isa.S(isa.SpecGTID))
	b.Add(rI, isa.R(rI), isa.I(1))
	b.Mov(rStride, isa.S(isa.SpecNTID))
	b.Mul(rStride, isa.R(rStride), isa.S(isa.SpecNCTAID))
	b.Sub(rTmp, isa.R(rN), isa.I(1))
	b.While(pLoop, false,
		func() { b.Setp(isa.LT, pLoop, isa.R(rI), isa.R(rTmp)) },
		func() {
			b.Ld(rC, isa.R(rInB), isa.R(rI))
			b.Sub(rG, isa.R(rI), isa.I(1))
			b.Ld(rL, isa.R(rInB), isa.R(rG))
			b.Add(rG, isa.R(rI), isa.I(1))
			b.Ld(rR, isa.R(rInB), isa.R(rG))
			// gradient = |l - r|
			b.Sub(rG, isa.R(rL), isa.R(rR))
			b.Setp(isa.LT, pSat, isa.R(rG), isa.I(0))
			b.If(pSat, false, func() {
				b.Sub(rG, isa.I(0), isa.R(rG))
			})
			// Data-dependent diffusion: strong gradients clamp.
			b.Setp(isa.GT, pSat, isa.R(rG), isa.I(64))
			b.IfElse(pSat, false,
				func() { b.Mov(rG, isa.I(64)) },
				func() { b.Div(rG, isa.R(rG), isa.I(2)) })
			b.Add(rC, isa.R(rC), isa.R(rG))
			b.St(isa.R(rOutB), isa.R(rI), isa.R(rC))
			b.Add(rI, isa.R(rI), isa.R(rStride))
		})
	b.Exit()
	prog := b.MustBuild()

	inV := sync.OnceValue(func() []uint32 { return draws(rng(71), n, 0, 1000) })
	ref := func(inV []uint32, i int) uint32 {
		g := int32(inV[i-1]) - int32(inV[i+1])
		if g < 0 {
			g = -g
		}
		if g > 64 {
			g = 64
		} else {
			g = g / 2
		}
		return inV[i] + uint32(g)
	}

	return &Kernel{
		Name:  "SRAD",
		Class: ClassSyncFree,
		Desc:  fmt.Sprintf("SRAD conditional stencil, %d cells", n),
		Launch: sim.Launch{
			Prog: prog, GridCTAs: ctas, CTAThreads: ctaThreads,
			Params:   []uint32{uint32(n), in, out},
			MemWords: l.size(),
			Setup:    func(w []uint32) { copy(w[in:], inV()) },
		},
		Verify: func(w []uint32) error {
			inV := inV()
			return checkElems(w, "SRAD: out", out, 1, n-1, func(i int) uint32 { return ref(inV, i) })
		},
	}
}

// NewLUD builds a LUD-like barrier-phased Gaussian elimination on an
// integer matrix: per step k, threads compute row factors, barrier, then
// eliminate the trailing submatrix, barrier. One CTA.
func NewLUD(dim, ctaThreads int) *Kernel {
	n := dim * dim
	var l layout
	mat := l.array(n)
	factor := l.array(dim)

	const (
		rDim, rMatB, rFacB, rK, rTid = 10, 11, 12, 2, 4
		rI, rJ, rIdx, rTmp, rF       = 5, 6, 7, 8, 9
		rStride, rPivot, rCell       = 16, 17, 18
		pK, pRow, pCell              = 0, 1, 2
	)

	b := isa.NewBuilder("LUD")
	b.LdParam(rDim, 0)
	b.LdParam(rMatB, 1)
	b.LdParam(rFacB, 2)
	b.Mov(rTid, isa.S(isa.SpecTID))
	b.Mov(rStride, isa.S(isa.SpecNTID))
	b.Sub(rTmp, isa.R(rDim), isa.I(1))
	b.For(rK, isa.I(0), isa.R(rTmp), 1, pK, func() {
		// factors: rows i > k, strided over threads
		b.Mul(rIdx, isa.R(rK), isa.R(rDim))
		b.Add(rIdx, isa.R(rIdx), isa.R(rK))
		b.Ld(rPivot, isa.R(rMatB), isa.R(rIdx)) // A[k][k]
		b.Add(rI, isa.R(rK), isa.I(1))
		b.Add(rI, isa.R(rI), isa.R(rTid))
		b.While(pRow, false,
			func() { b.Setp(isa.LT, pRow, isa.R(rI), isa.R(rDim)) },
			func() {
				b.Mul(rIdx, isa.R(rI), isa.R(rDim))
				b.Add(rIdx, isa.R(rIdx), isa.R(rK))
				b.Ld(rF, isa.R(rMatB), isa.R(rIdx)) // A[i][k]
				b.Div(rF, isa.R(rF), isa.R(rPivot))
				// Rows are partitioned i = k+1+tid+m*NTID, so threads never
				// share a factor slot; the k and m loop increments fold into
				// a single gcd-1 stride term in the abstract address, which
				// erases the Δtid separation warprace would need.
				b.St(isa.R(rFacB), isa.R(rI), isa.R(rF))
				b.NoLintLast("race")
				b.Add(rI, isa.R(rI), isa.R(rStride))
			})
		b.Membar()
		// warplint conservatively marks this barrier divergent: %r8 (rTmp)
		// is rewritten inside the thread-varying While body above, which
		// taints %p0 and hence the outer For's top test. Every lane writes
		// the same value (dim-k with uniform k), so the For trip count is
		// CTA-uniform and the barrier is safe; nolint records that.
		b.Bar()
		b.AnnotateLast(isa.AnnNoLint)
		// eliminate: cells (i, j) with i > k, j >= k, strided 1D
		b.Sub(rTmp, isa.R(rDim), isa.R(rK))
		b.Sub(rCell, isa.R(rTmp), isa.I(1))
		b.Mul(rCell, isa.R(rCell), isa.R(rTmp)) // (dim-k-1) * (dim-k) cells
		b.Mov(rJ, isa.R(rTid))
		b.While(pCell, false,
			func() { b.Setp(isa.LT, pCell, isa.R(rJ), isa.R(rCell)) },
			func() {
				// i = k+1 + j / (dim-k), col = k + j % (dim-k)
				b.Div(rI, isa.R(rJ), isa.R(rTmp))
				b.Add(rI, isa.R(rI), isa.R(rK))
				b.Add(rI, isa.R(rI), isa.I(1))
				b.Rem(rIdx, isa.R(rJ), isa.R(rTmp))
				b.Add(rIdx, isa.R(rIdx), isa.R(rK))
				// A[i][col] -= factor[i] * A[k][col]
				b.Ld(rF, isa.R(rFacB), isa.R(rI))
				b.Mul(rCell, isa.R(rK), isa.R(rDim)) // reuse as scratch
				b.Add(rCell, isa.R(rCell), isa.R(rIdx))
				b.Ld(rCell, isa.R(rMatB), isa.R(rCell)) // A[k][col]
				b.Mul(rF, isa.R(rF), isa.R(rCell))
				b.Mul(rCell, isa.R(rI), isa.R(rDim))
				b.Add(rCell, isa.R(rCell), isa.R(rIdx))
				b.Ld(rIdx, isa.R(rMatB), isa.R(rCell))
				b.Sub(rIdx, isa.R(rIdx), isa.R(rF))
				// Cell ownership comes from j = tid+m*NTID via div/rem by
				// dim-k — non-affine arithmetic the abstract domain tops
				// out on, so the per-thread partition is invisible.
				b.St(isa.R(rMatB), isa.R(rCell), isa.R(rIdx))
				b.NoLintLast("race")
				// restore loop state
				b.Sub(rTmp, isa.R(rDim), isa.R(rK))
				b.Sub(rCell, isa.R(rTmp), isa.I(1))
				b.Mul(rCell, isa.R(rCell), isa.R(rTmp))
				b.Add(rJ, isa.R(rJ), isa.R(rStride))
			})
		b.Membar()
		// Same conservatism as the factor-phase barrier above: %p0 is
		// tainted through %r8 but the For trip count is CTA-uniform.
		b.Bar()
		b.AnnotateLast(isa.AnnNoLint)
		b.Sub(rTmp, isa.R(rDim), isa.I(1)) // restore For scratch
	})
	b.Exit()
	prog := b.MustBuild()

	// The matrix and its reference elimination.
	data := sync.OnceValues(func() ([]uint32, []int32) {
		matV := pivoted(rng(73), dim)
		// Reference elimination with identical integer arithmetic.
		ref := make([]int32, n)
		for i, v := range matV {
			ref[i] = int32(v)
		}
		for k := 0; k < dim-1; k++ {
			piv := ref[k*dim+k]
			for i := k + 1; i < dim; i++ {
				f := ref[i*dim+k] / piv
				for j := k; j < dim; j++ {
					ref[i*dim+j] -= f * ref[k*dim+j]
				}
			}
		}
		return matV, ref
	})

	return &Kernel{
		Name:  "LUD",
		Class: ClassSyncFree,
		Desc:  fmt.Sprintf("barrier-phased elimination, %dx%d matrix", dim, dim),
		Launch: sim.Launch{
			Prog: prog, GridCTAs: 1, CTAThreads: ctaThreads,
			Params:   []uint32{uint32(dim), mat, factor},
			MemWords: l.size(),
			Setup: func(w []uint32) {
				matV, _ := data()
				copy(w[mat:], matV)
			},
		},
		Verify: func(w []uint32) error {
			_, ref := data()
			for i := 0; i < n; i++ {
				if got := int32(w[mat+uint32(i)]); got != ref[i] {
					return fmt.Errorf("LUD: A[%d][%d] = %d, want %d", i/dim, i%dim, got, ref[i])
				}
			}
			return nil
		},
	}
}

// pivoted draws a dim×dim integer matrix from r, entries 16–255 with a
// dominant diagonal of 512–1023 drawn after them: the input of LUD and
// GAUSSIAN.
func pivoted(r *rand.Rand, dim int) []uint32 {
	m := draws(r, dim*dim, 16, 240)
	for d := 0; d < dim; d++ {
		m[d*dim+d] = uint32(512 + r.Intn(512))
	}
	return m
}

// NewNN builds a nearest-neighbour search: each thread computes a
// Manhattan distance over the feature dimensions and publishes the
// global minimum with atomicMax on the negated distance — an atomic
// reduction that is *not* a lock and must not confuse the detector.
func NewNN(records, features, ctas, ctaThreads int) *Kernel {
	if records != ctas*ctaThreads {
		panic("NN: records must equal thread count")
	}
	var l layout
	data := l.array(records * features)
	query := l.array(features)
	l.alignLine()
	best := l.array(1) // holds max of -distance
	dist := l.array(records)

	const (
		rF, rDataB, rQB, rBestB, rDistB = 10, 11, 12, 13, 14
		rT, rAcc, rI, rA, rB, rTmp      = 2, 4, 5, 6, 7, 8
		pLoop, pNeg                     = 0, 1
	)

	b := isa.NewBuilder("NN")
	b.LdParam(rF, 0)
	b.LdParam(rDataB, 1)
	b.LdParam(rQB, 2)
	b.LdParam(rBestB, 3)
	b.LdParam(rDistB, 4)
	b.Mov(rT, isa.S(isa.SpecGTID))
	b.Mov(rAcc, isa.I(0))
	b.For(rI, isa.I(0), isa.R(rF), 1, pLoop, func() {
		b.Mul(rTmp, isa.R(rT), isa.R(rF))
		b.Add(rTmp, isa.R(rTmp), isa.R(rI))
		b.Ld(rA, isa.R(rDataB), isa.R(rTmp))
		b.Ld(rB, isa.R(rQB), isa.R(rI))
		b.Sub(rA, isa.R(rA), isa.R(rB))
		b.Setp(isa.LT, pNeg, isa.R(rA), isa.I(0))
		b.If(pNeg, false, func() { b.Sub(rA, isa.I(0), isa.R(rA)) })
		b.Add(rAcc, isa.R(rAcc), isa.R(rA))
	})
	b.St(isa.R(rDistB), isa.R(rT), isa.R(rAcc))
	b.Sub(rAcc, isa.I(0), isa.R(rAcc))
	b.AtomMax(rTmp, isa.R(rBestB), isa.I(0), isa.R(rAcc))
	b.Exit()
	prog := b.MustBuild()

	type nnData struct {
		data, query []uint32
		dist        []int32 // reference distance per record
		minDist     int32
	}
	nd := sync.OnceValue(func() (d nnData) {
		r := rng(79)
		d.data = draws(r, records*features, 0, 256)
		d.query = draws(r, features, 0, 256)
		d.dist = make([]int32, records)
		for t := range d.dist {
			for i := 0; i < features; i++ {
				x := int32(d.data[t*features+i]) - int32(d.query[i])
				if x < 0 {
					x = -x
				}
				d.dist[t] += x
			}
		}
		d.minDist = slices.Min(d.dist)
		return d
	})

	return &Kernel{
		Name:  "NN",
		Class: ClassSyncFree,
		Desc:  fmt.Sprintf("nearest neighbour: %d records x %d features", records, features),
		Launch: sim.Launch{
			Prog: prog, GridCTAs: ctas, CTAThreads: ctaThreads,
			Params:   []uint32{uint32(features), data, query, best, dist},
			MemWords: l.size(),
			Setup: func(w []uint32) {
				copy(w[data:], nd().data)
				copy(w[query:], nd().query)
				sentinel := int32(-1 << 30)
				w[best] = uint32(sentinel)
			},
		},
		Verify: func(w []uint32) error {
			d := nd()
			if got := -int32(w[best]); got != d.minDist {
				return fmt.Errorf("NN: min distance %d, want %d", got, d.minDist)
			}
			return checkElems(w, "NN: dist", dist, 0, len(d.dist), func(t int) int32 { return d.dist[t] })
		},
	}
}

// NewGaussian builds one Gaussian-elimination column step (the Rodinia
// Gaussian Fan1/Fan2 pair for a fixed k): distinct from LUD in that it is
// a single phase with no inner k loop, exercising wide short-lived
// launches.
func NewGaussian(dim, k, ctas, ctaThreads int) *Kernel {
	n := dim * dim
	var l layout
	mat := l.array(n)
	out := l.array(n)

	const (
		rDim, rMatB, rOutB, rK  = 10, 11, 12, 13
		rI, rStride, rRow, rCol = 2, 16, 4, 5
		rPiv, rF, rTmp, rIdx    = 6, 7, 8, 9
		pLoop, pBelow           = 0, 1
	)

	b := isa.NewBuilder("GAUSSIAN")
	b.LdParam(rDim, 0)
	b.LdParam(rMatB, 1)
	b.LdParam(rOutB, 2)
	b.LdParam(rK, 3)
	b.Mov(rI, isa.S(isa.SpecGTID))
	b.Mov(rStride, isa.S(isa.SpecNTID))
	b.Mul(rStride, isa.R(rStride), isa.S(isa.SpecNCTAID))
	b.Mul(rTmp, isa.R(rDim), isa.R(rDim))
	b.While(pLoop, false,
		func() { b.Setp(isa.LT, pLoop, isa.R(rI), isa.R(rTmp)) },
		func() {
			b.Div(rRow, isa.R(rI), isa.R(rDim))
			b.Rem(rCol, isa.R(rI), isa.R(rDim))
			b.Ld(rIdx, isa.R(rMatB), isa.R(rI))
			// Rows below k eliminate with the row-k pivot factor.
			b.Setp(isa.GT, pBelow, isa.R(rRow), isa.R(rK))
			b.If(pBelow, false, func() {
				b.Mul(rPiv, isa.R(rK), isa.R(rDim))
				b.Add(rPiv, isa.R(rPiv), isa.R(rK))
				b.Ld(rPiv, isa.R(rMatB), isa.R(rPiv)) // A[k][k]
				b.Mul(rF, isa.R(rRow), isa.R(rDim))
				b.Add(rF, isa.R(rF), isa.R(rK))
				b.Ld(rF, isa.R(rMatB), isa.R(rF)) // A[row][k]
				b.Div(rF, isa.R(rF), isa.R(rPiv))
				b.Mul(rPiv, isa.R(rK), isa.R(rDim))
				b.Add(rPiv, isa.R(rPiv), isa.R(rCol))
				b.Ld(rPiv, isa.R(rMatB), isa.R(rPiv)) // A[k][col]
				b.Mul(rF, isa.R(rF), isa.R(rPiv))
				b.Sub(rIdx, isa.R(rIdx), isa.R(rF))
			})
			// in and out are distinct arrays; the pivot-row loads mix the
			// k scalar (param 3) and dim products into their addresses, so
			// the single-param-base disjointness rule cannot apply.
			b.St(isa.R(rOutB), isa.R(rI), isa.R(rIdx))
			b.NoLintLast("race")
			b.Add(rI, isa.R(rI), isa.R(rStride))
			b.Mul(rTmp, isa.R(rDim), isa.R(rDim)) // restore loop bound
		})
	b.Exit()
	prog := b.MustBuild()

	matV := sync.OnceValue(func() []uint32 { return pivoted(rng(83), dim) })
	ref := func(matV []uint32, i int) int32 {
		row, col := i/dim, i%dim
		v := int32(matV[i])
		if row > k {
			f := int32(matV[row*dim+k]) / int32(matV[k*dim+k])
			v -= f * int32(matV[k*dim+col])
		}
		return v
	}

	return &Kernel{
		Name:  "GAUSSIAN",
		Class: ClassSyncFree,
		Desc:  fmt.Sprintf("gaussian elimination step k=%d, %dx%d matrix", k, dim, dim),
		Launch: sim.Launch{
			Prog: prog, GridCTAs: ctas, CTAThreads: ctaThreads,
			Params:   []uint32{uint32(dim), mat, out, uint32(k)},
			MemWords: l.size(),
			Setup:    func(w []uint32) { copy(w[mat:], matV()) },
		},
		Verify: func(w []uint32) error {
			matV := matV()
			return checkElems(w, "GAUSSIAN: out", out, 0, n, func(i int) int32 { return ref(matV, i) })
		},
	}
}
