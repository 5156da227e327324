package race_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"warpsched/internal/isa"
	"warpsched/internal/sim"
)

// The generated programs' memory: a sync area (lock word, ticket, now-
// serving counter, one flag per CTA), a table of small values, the data
// the rungs touch and one output word per thread. Parameters 0–3 point at
// them in that order, so distinct parameters name disjoint allocations as
// the prover assumes.
const (
	genSync    = 0
	genSmall   = 16
	genData    = 128
	genOut     = genData + 2048
	genMemSize = genOut + 512 + 64
)

// genGeometries are the launches each generated program is analyzed at
// and run at: one warp, two CTAs of two warps, and four CTAs of one.
var genGeometries = [][2]int{{1, 32}, {2, 64}, {4, 32}}

// genReader turns seed bytes into choices; past the end every choice is 0.
type genReader struct {
	b []byte
	i int
}

func (r *genReader) pick(n int) int {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return int(r.b[r.i-1]) % n
}

// generate builds a small program from seed: rungs that compute a value
// from %gtid, %tid, %ctaid, %laneid, a bounded loaded value or an affine
// mix (some of whose terms wrap 32-bit arithmetic), compare it under one
// of the six comparisons, and then touch data behind a guarded branch,
// under a guard, or plainly, at an address formed the same way. Some
// rungs are separated by bar.sync; the last ones run inside one of
// Stuart & Owens' wait idioms: a spin lock, a back-off lock, a ticket
// lock or a flag wait. Every address a thread can reach stays inside its
// allocation at genGeometries.
func generate(seed []byte) string {
	r := &genReader{b: seed}
	var b strings.Builder
	emit := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	emit("ld.param %%r10, 0\nld.param %%r11, 1\nld.param %%r12, 2\nld.param %%r13, 3\nmov %%r20, 0")
	reg, label := 0, 0
	next := func() string { reg++; return fmt.Sprintf("%%r%d", 20+reg) }

	// value computes a rung's value into a fresh register. For an address
	// index it stays small and non-negative, wrap terms aside, which are
	// multiples of 2^32.
	value := func(index bool) string {
		v := next()
		specials := []string{"%gtid", "%tid", "%ctaid", "%laneid"}
		switch k := r.pick(8); {
		case k < 4:
			emit("mov %s, %s", v, specials[k])
		case k == 4: // a bounded loaded value, 0..7
			emit("ld.global %s, [%%r12+%%laneid]\nand %s, %s, 7", v, v, v)
		case k == 5 && index: // neighbouring threads share a word
			emit("shr %s, %%tid, 1", v)
		case k == 6 && index: // every thread shares it
			emit("mov %s, %d", v, r.pick(4))
		default: // affine mix: a·x + y + c
			a := []int{1, 2, 3, -1, 1 << 27, 1 << 30}[r.pick(6)]
			if index {
				a = 1 + r.pick(2)
			}
			emit("mul %s, %s, %d\nadd %s, %s, %s", v, specials[r.pick(4)], a, v, v, specials[r.pick(4)])
			if c := r.pick(4); c > 0 && (!index || a > 0) {
				emit("add %s, %s, %d", v, v, c)
			}
		}
		if r.pick(4) == 0 { // + x·2^32: congruent, but not equal
			w := next()
			emit("mul %s, %s, 65536\nmul %s, %s, 65536\nadd %s, %s, %s",
				w, []string{"%laneid", "%tid", "%ctaid"}[r.pick(3)], w, w, v, v, w)
		}
		if index && r.pick(2) == 0 {
			emit("add %s, %s, %d", v, v, 1+r.pick(3))
		}
		return v
	}
	access := func(guard string) {
		idx := value(true)
		if r.pick(2) == 0 {
			emit("%sst.global [%%r10+%s], %s", guard, idx, idx)
			return
		}
		t := next()
		emit("%sld.global %s, [%%r10+%s]\nadd %%r20, %%r20, %s", guard, t, idx, t)
	}
	cmps := []string{"eq", "ne", "lt", "le", "gt", "ge"}
	rung := func(bar bool) {
		if reg > 60 {
			reg = 0 // %r21..%r81 is far more than one rung needs
		}
		p := fmt.Sprintf("%%p%d", r.pick(6))
		v := value(false)
		emit("setp.%s %s, %s, %d", cmps[r.pick(6)], p, v, []int{0, 1, 2, 7, 16, 30, 31, 40, 64}[r.pick(9)])
		neg := []string{"", "!"}[r.pick(2)]
		switch r.pick(3) {
		case 0:
			label++
			emit("@%s%s bra G%d reconv=G%d", neg, p, label, label)
			access("")
			emit("G%d:", label)
		case 1:
			access("@" + neg + p + " ")
		default:
			access("")
		}
		if bar && r.pick(3) == 0 {
			emit("bar.sync")
		}
	}

	for range r.pick(6) {
		rung(true)
	}
	body := func() {
		for range 1 + r.pick(4) {
			rung(false)
		}
	}
	label++
	l := label
	switch r.pick(5) {
	case 0:
		body()
	case 1, 2: // spin lock, or a lock that backs off after a failed attempt
		backoff := r.pick(2) == 1
		emit("mov %%r8, 0\nA%d:\natom.cas %%r9, [%%r11+0], 0, 1  !acquire,sync\nsetp.eq %%p7, %%r9, 0  !sync", l)
		emit("@!%%p7 bra F%d reconv=J%d", l, l)
		body()
		emit("membar  !sync\natom.exch %%r9, [%%r11+0], 0  !release,sync\nmov %%r8, 1\nbra J%d\nF%d:", l, l)
		if backoff {
			emit("mov %%r7, 0\nB%d:\nadd %%r7, %%r7, 1\nsetp.lt %%p6, %%r7, 4\n@%%p6 bra B%d", l, l)
		}
		emit("J%d:\nsetp.eq %%p6, %%r8, 0  !sync\n@%%p6 bra A%d  !sync", l, l)
	case 3: // ticket lock
		emit("atom.add %%r9, [%%r11+1], 1\nmov %%r8, 0\nT%d:\nld.volatile %%r7, [%%r11+2]  !sync", l)
		emit("setp.eq %%p7, %%r7, %%r9  !sync\n@!%%p7 bra J%d reconv=J%d", l, l)
		body()
		emit("membar  !sync\nadd %%r7, %%r7, 1\nst.global [%%r11+2], %%r7  !release,sync\nmov %%r8, 1")
		emit("J%d:\nsetp.eq %%p6, %%r8, 0  !sync\n@%%p6 bra T%d  !sync", l, l)
	default: // flag wait: thread 0 of each CTA publishes, the rest wait
		emit("mov %%r8, %%ctaid\nadd %%r8, %%r8, 3\nmov %%r7, %%tid\nsetp.eq %%p7, %%r7, 0")
		emit("@!%%p7 bra W%d reconv=W%d", l, l)
		access("")
		emit("membar  !sync\natom.exch %%r9, [%%r11+%%r8], 1  !release,sync\nW%d:", l)
		emit("ld.volatile %%r9, [%%r11+%%r8]  !sync\nsetp.eq %%p6, %%r9, 0  !sync\n@%%p6 bra W%d  !sync", l)
		body()
	}
	emit("mov %%r7, %%gtid\nst.global [%%r13+%%r7], %%r20\nexit")
	return b.String()
}

// genLaunch is a generated program's launch at one geometry.
func genLaunch(p *isa.Program, geo [2]int) sim.Launch {
	return sim.Launch{
		Prog: p, GridCTAs: geo[0], CTAThreads: geo[1],
		Params:   []uint32{genData, genSync, genSmall, genOut},
		MemWords: genMemSize,
		Setup: func(w []uint32) {
			for i := range 64 {
				w[genSmall+i] = uint32(i * 5 % 8)
			}
		},
	}
}

// genSeeds are the tier-1 seeds of FuzzSoundness.
func genSeeds() [][]byte {
	rng := rand.New(rand.NewSource(1))
	seeds := make([][]byte, 100)
	for i := range seeds {
		seeds[i] = make([]byte, 96)
		rng.Read(seeds[i])
	}
	return seeds
}

// FuzzSoundness audits the prover with programs nobody chose: each
// generated program is analyzed and run under the shadow access log at
// every geometry of genGeometries, and an observed collision on a pair
// the prover proved disjoint fails (checkSoundness).
func FuzzSoundness(f *testing.F) {
	for _, s := range genSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed []byte) {
		src := generate(seed)
		p, err := isa.Parse("gen", src)
		if err != nil {
			t.Fatalf("generated program does not parse: %v\n%s", err, src)
		}
		for _, geo := range genGeometries {
			checkSoundness(t, genLaunch(p, geo))
		}
		if t.Failed() {
			t.Logf("program:\n%s", src)
		}
	})
}
