package kernels

import (
	"fmt"
	"sync"

	"warpsched/internal/isa"
	"warpsched/internal/sim"
)

// HashTableConfig parameterizes the chained-hashtable insertion kernel
// (paper Figure 1a): Items random keys are inserted into Buckets chains
// by CTAs×CTAThreads threads in a grid-stride loop. DelayFactor > 0 adds
// the software back-off delay code of Figure 3a to the lock-failure path.
type HashTableConfig struct {
	Items       int
	Buckets     int
	CTAs        int
	CTAThreads  int
	DelayFactor int
	Seed        int64
}

// Hashtable memory layout parameter indices.
const (
	htParamItems = iota
	htParamBuckets
	htParamKeys
	htParamLocks
	htParamHeads
	htParamNexts
	htParamDelay
)

// NewHashTable builds the HT kernel. The PTX shape follows Figure 7a: a
// bottom-tested busy-wait loop whose backward branch is the ground-truth
// SIB, an atomicCAS acquire, the insertion critical section, and an
// atomicExch release inside the loop (the SIMT-deadlock-free idiom of
// Figure 1a).
func NewHashTable(c HashTableConfig) *Kernel {
	if c.Seed == 0 {
		c.Seed = 1
	}
	var l layout
	keys := l.array(c.Items)
	l.alignLine()
	locks := l.array(c.Buckets)
	l.alignLine()
	heads := l.array(c.Buckets)
	l.alignLine()
	nexts := l.array(c.Items)

	const (
		rN, rB, rKeys, rLocks, rHeads, rNexts = 10, 11, 12, 13, 14, 15
		rStride, rI, rKey, rH, rDone          = 16, 2, 4, 5, 6
		rCas, rHead, rTmp                     = 7, 8, 9
		rClk0, rClk1, rElapsed, rLimit        = 20, 21, 22, 23
		pLoop, pGot, pSpin, pDelay            = 0, 1, 2, 3
	)

	b := isa.NewBuilder("HT")
	b.LdParam(rN, htParamItems)
	b.LdParam(rB, htParamBuckets)
	b.LdParam(rKeys, htParamKeys)
	b.LdParam(rLocks, htParamLocks)
	b.LdParam(rHeads, htParamHeads)
	b.LdParam(rNexts, htParamNexts)
	b.Mov(rI, isa.S(isa.SpecGTID))
	b.Mov(rStride, isa.S(isa.SpecNTID))
	b.Mul(rStride, isa.R(rStride), isa.S(isa.SpecNCTAID))
	if c.DelayFactor > 0 {
		// DELAY_FACTOR * blockIdx.x (Figure 3a line 6).
		b.LdParam(rLimit, htParamDelay)
		b.Mul(rLimit, isa.R(rLimit), isa.S(isa.SpecCTAID))
	}
	b.While(pLoop, false,
		func() { b.Setp(isa.LT, pLoop, isa.R(rI), isa.R(rN)) },
		func() {
			b.Ld(rKey, isa.R(rKeys), isa.R(rI))
			b.Rem(rH, isa.R(rKey), isa.R(rB))
			b.Annotate(isa.AnnSync, func() { b.Mov(rDone, isa.I(0)) })
			b.DoWhile(pSpin, false,
				func() {
					b.Annotate(isa.AnnSync, func() {
						b.AtomCAS(rCas, isa.R(rLocks), isa.R(rH), isa.I(0), isa.I(1))
						b.AnnotateLast(isa.AnnLockAcquire)
						b.Setp(isa.EQ, pGot, isa.R(rCas), isa.I(0))
					})
					b.If(pGot, false, func() {
						// Critical section: the useful insertion work.
						b.LdVol(rHead, isa.R(rHeads), isa.R(rH))
						b.St(isa.R(rNexts), isa.R(rI), isa.R(rHead))
						b.St(isa.R(rHeads), isa.R(rH), isa.R(rI))
						b.Annotate(isa.AnnSync, func() {
							b.Mov(rDone, isa.I(1))
							b.Membar()
							b.AtomExch(rTmp, isa.R(rLocks), isa.R(rH), isa.I(0))
							b.AnnotateLast(isa.AnnLockRelease)
						})
					})
					if c.DelayFactor > 0 {
						// Figure 3a back-off delay on the failure path. The
						// loop spins on the clock, not on another thread:
						// sync overhead, but Build derives no SIB for it.
						b.Annotate(isa.AnnSync, func() {
							b.If(pGot, true, func() {
								b.Clock(rClk0)
								b.DoWhile(pDelay, false,
									func() {
										b.Clock(rClk1)
										b.Sub(rElapsed, isa.R(rClk1), isa.R(rClk0))
									},
									func() {
										b.Setp(isa.LT, pDelay, isa.R(rElapsed), isa.R(rLimit))
									})
							})
						})
					}
				},
				func() {
					b.Annotate(isa.AnnSync, func() {
						b.Setp(isa.EQ, pSpin, isa.R(rDone), isa.I(0))
					})
				})
			b.AnnotateLast(isa.AnnSync)
			b.Add(rI, isa.R(rI), isa.R(rStride))
		})
	b.Exit()
	prog := b.MustBuild()

	params := make([]uint32, 7)
	params[htParamItems] = uint32(c.Items)
	params[htParamBuckets] = uint32(c.Buckets)
	params[htParamKeys] = keys
	params[htParamLocks] = locks
	params[htParamHeads] = heads
	params[htParamNexts] = nexts
	params[htParamDelay] = uint32(c.DelayFactor)

	keyVals := sync.OnceValue(func() []uint32 { return draws(rng(c.Seed), c.Items, 0, 1<<24) })

	setup := func(w []uint32) {
		copy(w[keys:], keyVals())
		for i := 0; i < c.Buckets; i++ {
			w[heads+uint32(i)] = 0xFFFFFFFF // empty chain
		}
	}

	verify := func(w []uint32) error {
		keyVals := keyVals()
		seen := make([]bool, c.Items)
		total := 0
		for bkt := 0; bkt < c.Buckets; bkt++ {
			cur := w[heads+uint32(bkt)]
			steps := 0
			for cur != 0xFFFFFFFF {
				if cur >= uint32(c.Items) {
					return fmt.Errorf("HT: bucket %d: bad entry index %d", bkt, cur)
				}
				if seen[cur] {
					return fmt.Errorf("HT: entry %d linked twice", cur)
				}
				seen[cur] = true
				if got := keyVals[cur] % uint32(c.Buckets); got != uint32(bkt) {
					return fmt.Errorf("HT: entry %d (key %d) in bucket %d, want %d", cur, keyVals[cur], bkt, got)
				}
				total++
				cur = w[nexts+cur]
				if steps++; steps > c.Items {
					return fmt.Errorf("HT: cycle in bucket %d chain", bkt)
				}
			}
		}
		if total != c.Items {
			return fmt.Errorf("HT: %d entries linked, want %d", total, c.Items)
		}
		return nil
	}

	name := "HT"
	if c.DelayFactor > 0 {
		name = fmt.Sprintf("HT/delay%d", c.DelayFactor)
	}
	return &Kernel{
		Name:  name,
		Class: ClassSync,
		Desc:  fmt.Sprintf("chained hashtable: %d inserts, %d buckets", c.Items, c.Buckets),
		Launch: sim.Launch{
			Prog:       prog,
			GridCTAs:   c.CTAs,
			CTAThreads: c.CTAThreads,
			Params:     params,
			MemWords:   l.size(),
			Setup:      setup,
		},
		Verify: verify,
	}
}
