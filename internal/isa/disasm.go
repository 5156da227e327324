package isa

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Disasm renders one instruction in the syntax Parse reads, with numeric
// PCs for branch targets and reconvergence points.
func Disasm(in *Instr) string {
	var sb strings.Builder
	in.format(&sb, func(pc int32) string { return strconv.Itoa(int(pc)) })
	return sb.String()
}

// Assembly renders the program in the exact syntax accepted by Parse, so
// that Parse(name, p.Assembly()) rebuilds an equivalent program: same
// opcodes, operands, guards, branch targets, reconvergence PCs and
// annotations. Branch targets and reconvergence points become generated
// "L<pc>" labels; reconvergence is always emitted explicitly (reconv=L)
// so backward and forward conditional branches round-trip identically.
func (p *Program) Assembly() string {
	needLabel := make(map[int32]bool)
	for pc := range p.Code {
		in := &p.Code[pc]
		if in.Op != OpBra {
			continue
		}
		needLabel[in.Target] = true
		if in.Guarded() && in.Reconv != NoReconv {
			needLabel[in.Reconv] = true
		}
	}
	lbl := func(pc int32) string { return "L" + strconv.Itoa(int(pc)) }

	var sb strings.Builder
	for pc := range p.Code {
		if needLabel[int32(pc)] {
			sb.WriteString(lbl(int32(pc)) + ":\n")
		}
		sb.WriteString("  ")
		p.Code[pc].format(&sb, lbl)
		sb.WriteByte('\n')
	}
	// A reconvergence point one past the last instruction needs a label
	// at end of file; Parse accepts a trailing label with no instruction.
	if needLabel[int32(len(p.Code))] {
		sb.WriteString(lbl(int32(len(p.Code))) + ":\n")
	}
	return sb.String()
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
