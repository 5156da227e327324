// Custom kernel: write a spin-lock kernel as PTX-flavoured assembly text,
// assemble it with warpsched.ParseProgram, and run it with and without
// BOWS. This is the workflow for studying synchronization code that is
// not in the built-in suite.
package main

import (
	"fmt"
	"log"

	"warpsched"
)

// Each thread atomically pushes its id onto a shared stack guarded by one
// spin lock: acquire, read top, link, publish, release — the minimal
// lock-protected data structure.
const stackPushSrc = `
  ld.param %r10, 0          // lock address
  ld.param %r11, 1          // top-of-stack address
  ld.param %r12, 2          // next[] base
  mov %r1, %gtid
  mov %r6, 0                // done = 0
push:
  atom.cas %r7, [%r10+0], 0, 1     !acquire,sync
  setp.eq %p1, %r7, 0              !sync
  @!%p1 bra retry reconv=retry
  ld.volatile %r8, [%r11+0]        // old top
  st.global [%r12+%r1], %r8        // next[gtid] = old top
  st.global [%r11+0], %r1          // top = gtid
  mov %r6, 1
  membar                           !sync
  atom.exch %r9, [%r10+0], 0       !release,sync
retry:
  setp.eq %p2, %r6, 0              !sync
  @%p2 bra push                    !sync
  exit
`

func main() {
	prog, err := warpsched.ParseProgram("stackpush", stackPushSrc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(prog.Listing())

	const threads = 2048
	const (
		lockAddr = 0
		topAddr  = 32
		nextBase = 64
	)
	launch := warpsched.Launch{
		Prog:       prog,
		GridCTAs:   threads / 128,
		CTAThreads: 128,
		Params:     []uint32{lockAddr, topAddr, nextBase},
		MemWords:   nextBase + threads + 64,
		Setup: func(w []uint32) {
			w[topAddr] = 0xFFFFFFFF // empty stack
		},
	}
	bench := warpsched.NewBenchmark("stackpush", "lock-protected stack push", launch,
		func(w []uint32) error {
			// Every thread id must appear exactly once on the stack.
			seen := make([]bool, threads)
			count := 0
			for cur := w[topAddr]; cur != 0xFFFFFFFF; cur = w[nextBase+cur] {
				if cur >= threads || seen[cur] {
					return fmt.Errorf("corrupt stack at %d", cur)
				}
				seen[cur] = true
				count++
			}
			if count != threads {
				return fmt.Errorf("stack has %d entries, want %d", count, threads)
			}
			return nil
		})

	opt := warpsched.DefaultOptions()
	opt.GPU = warpsched.GTX480().Scaled(2)
	base, err := warpsched.Run(opt, bench)
	if err != nil {
		log.Fatal(err)
	}
	opt.BOWS = warpsched.DefaultBOWS()
	bows, err := warpsched.Run(opt, bench)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GTO: %d cycles, %d failed acquires\n", base.Stats.Cycles,
		base.Stats.Sync.InterWarpFail+base.Stats.Sync.IntraWarpFail)
	fmt.Printf("GTO+BOWS: %d cycles, %d failed acquires (detected SIBs at %v, truth %v)\n",
		bows.Stats.Cycles, bows.Stats.Sync.InterWarpFail+bows.Stats.Sync.IntraWarpFail,
		bows.ConfirmedSIBs, prog.TrueSIBs)
}
