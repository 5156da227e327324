// Package kernels defines the benchmark suite of the paper's Section V —
// the eight fine-grained-synchronization kernels (TB, ST, DS, ATM, HT,
// TSP, NW1, NW2) and a set of synchronization-free kernels standing in
// for Rodinia (including the two loop shapes, MS and HL, that trigger
// MODULO-hash false detections in Figure 14) — each with a deterministic
// input generator and a functional verifier that checks the final memory
// image, so scheduler changes can never silently break program semantics.
//
// A constructor builds what identifies and validates a kernel — the
// program, the memory layout, Params, MemWords, the geometry — and panics
// on bad arguments. What derives from the seed (the input arrays, the
// reference results, the verifier's model) is synthesized by one
// sync.OnceValue per kernel, on the kernel's first Launch.Setup or
// Verify, so a kernel built only for its name or program never pays for
// its data, and a launched one pays once.
package kernels

import (
	"fmt"
	"math/rand"

	"warpsched/internal/sim"
)

// Class partitions the suite for experiment selection.
type Class string

const (
	// ClassSync kernels use busy-wait synchronization.
	ClassSync Class = "sync"
	// ClassSyncFree kernels have no inter-thread synchronization (barriers
	// at most) and must be unaffected by a correct detector.
	ClassSyncFree Class = "sync-free"
)

// Kernel bundles a launch with its verifier. Launch.Setup and Verify
// share the kernel's seeded data, which the first call of either
// synthesizes; both are safe for concurrent use.
type Kernel struct {
	Name  string
	Class Class
	Desc  string
	// Launch is the simulator input.
	Launch sim.Launch
	// Verify inspects the final memory image and returns an error on any
	// functional violation.
	Verify func(words []uint32) error
}

// layout is a bump allocator for laying out arrays in the flat word
// memory.
type layout struct{ next uint32 }

// array reserves n words and returns the base address.
func (l *layout) array(n int) uint32 {
	base := l.next
	l.next += uint32(n)
	return base
}

// alignLine advances to the next 128-byte line boundary.
func (l *layout) alignLine() {
	const lw = 32
	if r := l.next % lw; r != 0 {
		l.next += lw - r
	}
}

// size returns the total words allocated (with slack for safety).
func (l *layout) size() int { return int(l.next) + 64 }

// rng returns a deterministic generator for input synthesis.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// draws returns n words lo + r.Intn(span), drawn in index order.
func draws(r *rand.Rand, n, lo, span int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(lo + r.Intn(span))
	}
	return out
}

// checkElems is the verifiers' element check: it reports the first index
// i in [lo, hi) whose word at base+i, read as T, differs from want(i), as
// "<what>[i] = got, want w" (what is "KERNEL: array").
func checkElems[T uint32 | int32](w []uint32, what string, base uint32, lo, hi int, want func(i int) T) error {
	for i, g := range w[base+uint32(lo) : base+uint32(hi)] {
		if got, wi := T(g), want(lo+i); got != wi {
			return fmt.Errorf("%s[%d] = %d, want %d", what, lo+i, got, wi)
		}
	}
	return nil
}

// row is one line of the suite table: a kernel's name and class and the
// constructors of its full- and quick-scale instances.
type row struct {
	name        string
	class       Class
	full, quick func() *Kernel
}

// table is the benchmark suite, the one list the suite constructors,
// ByName and Names derive from: the paper's eight synchronization kernels
// in the order of Figure 2, then the Rodinia-standin kernels of the
// false-detection studies (Table I denominators, Figure 14). Full sizes
// are the default scaled sizes documented in EXPERIMENTS.md, chosen to
// saturate the default 4-SM scaled Fermi (192 warp slots = 6144 threads)
// at thread:lock contention ratios comparable to the paper's inputs —
// BOWS's effects only appear when spinning warps compete with useful
// work for issue slots and memory bandwidth. Quick sizes keep the
// structure on smaller inputs, for tests and the benchmark (see
// EXPERIMENTS.md for the scaling rationale).
var table = []row{
	{"TB", ClassSync, func() *Kernel { return NewBHTB(12288, 8, 8, 128) }, // CTA count limited, as in the real TB
		func() *Kernel { return NewBHTB(6144, 7, 4, 128) }},
	{"ST", ClassSync, func() *Kernel { return NewBHST(16383, 32, 128) },
		func() *Kernel { return NewBHST(8191, 16, 128) }},
	{"DS", ClassSync, func() *Kernel { return NewClothDS(12288, 384, 48, 128) },
		func() *Kernel { return NewClothDS(3072, 128, 24, 128) }},
	{"ATM", ClassSync, func() *Kernel { return NewATM(12288, 256, 48, 128) },
		func() *Kernel { return NewATM(3072, 128, 24, 128) }},
	{"HT", ClassSync, func() *Kernel {
		return NewHashTable(HashTableConfig{Items: 12288, Buckets: 256, CTAs: 48, CTAThreads: 128})
	}, func() *Kernel {
		return NewHashTable(HashTableConfig{Items: 6144, Buckets: 128, CTAs: 24, CTAThreads: 128})
	}},
	{"TSP", ClassSync, func() *Kernel { return NewTSP(6144, 64, 48, 128) },
		func() *Kernel { return NewTSP(3072, 48, 24, 128) }},
	{"NW1", ClassSync, func() *Kernel { return NewNW(1, 512, 128) },
		func() *Kernel { return NewNW(1, 256, 128) }},
	{"NW2", ClassSync, func() *Kernel { return NewNW(2, 512, 128) },
		func() *Kernel { return NewNW(2, 256, 128) }},
	{"KMEANS", ClassSyncFree, func() *Kernel { return NewKmeansCopy(16384, 8, 128) },
		func() *Kernel { return NewKmeansCopy(2048, 2, 64) }},
	{"VECADD", ClassSyncFree, func() *Kernel { return NewVecAdd(32768, 16, 128) },
		func() *Kernel { return NewVecAdd(2048, 2, 64) }},
	{"REDUCE", ClassSyncFree, func() *Kernel { return NewReduce(64, 256) },
		func() *Kernel { return NewReduce(8, 128) }},
	{"MS", ClassSyncFree, func() *Kernel { return NewMergeSortPass(131072, 8, 128) },
		func() *Kernel { return NewMergeSortPass(65536, 2, 64) }},
	{"HL", ClassSyncFree, func() *Kernel { return NewHeartwall(32768, 8, 128) },
		func() *Kernel { return NewHeartwall(8192, 2, 64) }},
	{"STENCIL", ClassSyncFree, func() *Kernel { return NewStencil(16384, 8, 128) },
		func() *Kernel { return NewStencil(2048, 2, 64) }},
	{"BFS", ClassSyncFree, func() *Kernel { return NewBFS(1024, 4, 256) },
		func() *Kernel { return NewBFS(512, 3, 128) }},
	{"HOTSPOT", ClassSyncFree, func() *Kernel { return NewHotspot(64, 4, 128) },
		func() *Kernel { return NewHotspot(32, 2, 64) }},
	{"PATHFINDER", ClassSyncFree, func() *Kernel { return NewPathfinder(64, 256) },
		func() *Kernel { return NewPathfinder(32, 128) }},
	{"BACKPROP", ClassSyncFree, func() *Kernel { return NewBackprop(128, 1024, 8, 128) },
		func() *Kernel { return NewBackprop(64, 256, 2, 128) }},
	{"SRAD", ClassSyncFree, func() *Kernel { return NewSRAD(8192, 4, 128) },
		func() *Kernel { return NewSRAD(2048, 2, 64) }},
	{"LUD", ClassSyncFree, func() *Kernel { return NewLUD(32, 256) },
		func() *Kernel { return NewLUD(24, 128) }},
	{"NN", ClassSyncFree, func() *Kernel { return NewNN(1024, 32, 8, 128) },
		func() *Kernel { return NewNN(256, 16, 2, 128) }},
	{"GAUSSIAN", ClassSyncFree, func() *Kernel { return NewGaussian(48, 3, 4, 128) },
		func() *Kernel { return NewGaussian(32, 2, 2, 64) }},
}

// suite builds the table's kernels of one class at one scale, in table order.
func suite(class Class, quick bool) []*Kernel {
	var out []*Kernel
	for _, r := range table {
		mk := r.full
		if quick {
			mk = r.quick
		}
		if r.class == class {
			out = append(out, mk())
		}
	}
	return out
}

// SyncSuite returns the paper's eight synchronization kernels in the
// order of Figure 2 (TB, ST, DS, ATM, HT, TSP, NW1, NW2) at full size.
func SyncSuite() []*Kernel { return suite(ClassSync, false) }

// SyncFreeSuite returns the full-size Rodinia-standin kernels.
func SyncFreeSuite() []*Kernel { return suite(ClassSyncFree, false) }

// QuickSyncSuite returns reduced-size instances of the synchronization suite.
func QuickSyncSuite() []*Kernel { return suite(ClassSync, true) }

// QuickSyncFreeSuite returns reduced-size sync-free kernels.
func QuickSyncFreeSuite() []*Kernel { return suite(ClassSyncFree, true) }

// ByName builds the full-size kernel with the given name.
func ByName(name string) (*Kernel, error) {
	for _, r := range table {
		if r.name == name {
			return r.full(), nil
		}
	}
	return nil, fmt.Errorf("kernels: unknown kernel %q", name)
}

// Names lists all kernel names, sync suite first, without building any.
func Names() []string {
	out := make([]string, len(table))
	for i, r := range table {
		out[i] = r.name
	}
	return out
}
