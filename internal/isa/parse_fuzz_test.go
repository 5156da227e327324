package isa_test

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"warpsched/internal/isa"
	"warpsched/internal/kernels"
)

// FuzzParse feeds Parse text it did not write — what warpsimd does with
// every inline submission. Whatever the text, Parse returns a program or
// an error and never panics; and a program it accepts survives the round
// trip through its own assembly: Parse(p.Assembly()) is accepted, has the
// same instructions and SIB set, and renders to the same text again.
func FuzzParse(f *testing.F) {
	var suites []*kernels.Kernel
	suites = append(suites, kernels.SyncSuite()...)
	suites = append(suites, kernels.SyncFreeSuite()...)
	suites = append(suites, kernels.QuickSyncSuite()...)
	suites = append(suites, kernels.QuickSyncFreeSuite()...)
	for _, k := range suites {
		f.Add(k.Launch.Prog.Assembly())
	}
	data, err := os.ReadFile("../../examples/customkernel/main.go")
	if err != nil {
		f.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(data), "const stackPushSrc = `")
	stackPush, _, ok2 := strings.Cut(rest, "`")
	if !ok || !ok2 {
		f.Fatal("examples/customkernel/main.go no longer declares stackPushSrc as a raw string")
	}
	f.Add(stackPush)
	// The inline programs FuzzSubmit seeds the daemon with: the service
	// mix's two loops, a racy store, and the parse and analysis rejects.
	for _, src := range []string{
		"\n  ld.param %r2, 0\n  mov %r1, 0\nloop:\n  add %r1, %r1, 1\n  setp.lt %p1, %r1, %r2\n  @%p1 bra loop\n  exit\n",
		"\n  ld.param %r10, 0\n  ld.param %r2, 1\n  mov %r1, %gtid\n  ld.global %r3, [%r10+%r1]\n  mov %r4, 0\nloop:\n" +
			"  add %r3, %r3, %r1\n  add %r4, %r4, 1\n  setp.lt %p1, %r4, %r2\n  @%p1 bra loop\n  st.global [%r10+%r1], %r3\n  exit\n",
		"\n  mov %r1, %tid\n  shr %r3, %r1, 1\n  st.global [%r3+0], %r1\n  exit\n",
		"frob %r1",
		"add %r1, %r2, 1\nexit\n",
		"exit\n",
		// Forms the language accepts beside the canonical ones, and one
		// reject: short mnemonics, operands bar.sync and nop ignore, and
		// a parameter index past 255.
		"bar.sync 0\nbar\nnop %r1, 5\nexit\n",
		"ld %r1, [%r2+4]\nst [%r2+8], %r1\nexit\n",
		"ld.param %r1, 256\nexit\n",
		// A written sib mark never changes the truth Build derives: one
		// on a clock-only delay loop, which is not a SIB, and a wait loop
		// on ld.volatile written without it, which is.
		"\n  mov %r1, %clock\ndelay:\n  mov %r2, %clock  !sync\n  sub %r2, %r2, %r1  !sync\n" +
			"  setp.lt %p0, %r2, 50  !sync\n  @%p0 bra delay  !sib,sync\n  exit\n",
		"\n  ld.param %r2, 0\nwait:\n  ld.volatile %r1, [%r2+0]  !sync\n  setp.eq %p0, %r1, 0  !sync\n" +
			"  @%p0 bra wait  !sync\n  exit\n",
	} {
		f.Add(src)
	}

	f.Fuzz(func(t *testing.T, src string) {
		p, err := isa.Parse("fuzz", src)
		if err != nil {
			return
		}
		text := p.Assembly()
		q, err := isa.Parse("fuzz", text)
		if err != nil {
			t.Fatalf("the assembly of an accepted program does not parse: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(q.Code, p.Code) || !slices.Equal(q.TrueSIBs, p.TrueSIBs) {
			t.Fatalf("round trip changed the program:\n%s\nvs\n%s", p.Listing(), q.Listing())
		}
		if again := q.Assembly(); again != text {
			t.Fatalf("round trip changed the assembly:\n%s\nvs\n%s", text, again)
		}
	})
}
