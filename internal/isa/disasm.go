package isa

import (
	"fmt"
	"sort"
	"strings"
)

// Disasm renders one instruction in the syntax Parse reads, with numeric
// PCs for branch targets and reconvergence points.
func Disasm(in *Instr) string {
	return string(in.appendTo(nil, func(b []byte, pc int32) []byte { return appendIndexed(b, "", int64(pc)) }))
}

// Assembly renders the program in the exact syntax accepted by Parse, so
// that Parse(name, p.Assembly()) rebuilds an equivalent program: same
// opcodes, operands, guards, branch targets, reconvergence PCs and
// annotations. Branch targets and reconvergence points become generated
// "L<pc>" labels; reconvergence is always emitted explicitly (reconv=L)
// so backward and forward conditional branches round-trip identically.
func (p *Program) Assembly() string {
	return string(p.AppendAssembly(make([]byte, 0, 24*len(p.Code))))
}

// AppendAssembly appends the text Assembly returns to b.
func (p *Program) AppendAssembly(b []byte) []byte {
	// Only PCs 0..len(p.Code) get a label line; an unvalidated program
	// may name others.
	needLabel := make([]bool, len(p.Code)+1)
	mark := func(pc int32) {
		if pc >= 0 && int(pc) < len(needLabel) {
			needLabel[pc] = true
		}
	}
	for pc := range p.Code {
		in := &p.Code[pc]
		if in.Op != OpBra {
			continue
		}
		mark(in.Target)
		if in.Guarded() && in.Reconv != NoReconv {
			mark(in.Reconv)
		}
	}
	lbl := func(b []byte, pc int32) []byte { return appendIndexed(b, "L", int64(pc)) }

	for pc := range p.Code {
		if needLabel[pc] {
			b = append(lbl(b, int32(pc)), ":\n"...)
		}
		b = append(b, "  "...)
		b = append(p.Code[pc].appendTo(b, lbl), '\n')
	}
	// A reconvergence point one past the last instruction needs a label
	// at end of file; Parse accepts a trailing label with no instruction.
	if needLabel[len(p.Code)] {
		b = append(lbl(b, int32(len(p.Code))), ":\n"...)
	}
	return b
}

// Listing renders the full program with PCs and label markers.
func (p *Program) Listing() string {
	byPC := make(map[int32][]string)
	for name, pc := range p.Labels {
		byPC[pc] = append(byPC[pc], name)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "// kernel %s (%d instructions)\n", p.Name, len(p.Code))
	for pc := range p.Code {
		if names := byPC[int32(pc)]; len(names) > 0 {
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(&sb, "%s:\n", n)
			}
		}
		fmt.Fprintf(&sb, "  %04d: %s\n", pc, Disasm(&p.Code[pc]))
	}
	return sb.String()
}
