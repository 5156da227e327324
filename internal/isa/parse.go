package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse assembles a PTX-flavoured text program. It is the textual
// counterpart of the Builder: labels, structured reconvergence rules and
// annotations behave identically, so a program written as text is
// indistinguishable from one built programmatically.
//
// Syntax, one instruction per line ("//" and "#" start comments):
//
//	entry:                            // label definition
//	  mov   %r1, %tid                 // operands: %rN, %pN, immediates,
//	  add   %r1, %r1, 4               // and special registers (%tid,
//	  setp.lt %p0, %r1, %r2           // %ntid, %ctaid, %nctaid, %laneid,
//	  @%p0 bra entry                  // %warpid, %smid, %gtid, %clock)
//	  @!%p1 bra end reconv=end        // forward cond. branches need reconv
//	  ld.global    %r3, [%r10+%r1]
//	  ld.volatile  %r3, [%r10+8]      // L1-bypassing load
//	  st.global    [%r10+%r1], %r3
//	  atom.cas  %r4, [%r10+0], 0, 1  !acquire,sync
//	  atom.exch %r4, [%r10+0], 0     !release,sync
//	  atom.add  %r4, [%r9+0], 1
//	  atom.max  %r4, [%r9+0], %r2
//	  selp  %r5, 1, 2, %p0
//	  ld.param %r6, 0
//	  bar.sync
//	  membar
//	  nop
//	end:
//	  exit
//
// A trailing "!a,b,c" annotates the instruction with any of: sib,
// acquire, release, waitcheck, sync, nolint. A nolint token may carry a
// finding-class list — `!nolint race,lockorder` — restricting the
// suppression to those classes; because the classes are comma-separated
// too, `nolint <class>` must be the last annotation on the line (every
// token after it is read as another class).
func Parse(name, src string) (*Program, error) {
	b := NewBuilder(name)
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := parseLine(b, line); err != nil {
			return nil, fmt.Errorf("isa: %q line %d: %w", name, lineNo+1, err)
		}
	}
	return b.Build()
}

func stripComment(line string) string {
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	if i := strings.Index(line, "#"); i >= 0 {
		line = line[:i]
	}
	return line
}

var annNames = map[string]Ann{
	"sib":       AnnSIB,
	"acquire":   AnnLockAcquire,
	"release":   AnnLockRelease,
	"waitcheck": AnnWaitCheck,
	"sync":      AnnSync,
	"nolint":    AnnNoLint,
}

func parseLine(b *Builder, line string) error {
	// Label definition.
	if strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t") {
		b.Label(strings.TrimSuffix(line, ":"))
		return nil
	}

	// Trailing annotations: " !acquire,sync" (the bang must follow
	// whitespace so guard negation "@!%p1" is not misparsed). A
	// "nolint <class>" token switches the rest of the list into
	// suppression-class position: the classes are themselves
	// comma-separated, so they are whatever follows.
	var ann Ann
	var nolint []string
	if i := strings.LastIndex(line, " !"); i >= 0 {
		inClasses := false
		for _, nm := range strings.Split(line[i+2:], ",") {
			tok := strings.TrimSpace(nm)
			if inClasses {
				if !validNoLintClass(tok) {
					return fmt.Errorf("bad nolint class %q", tok)
				}
				nolint = append(nolint, tok)
				continue
			}
			if cls, ok := strings.CutPrefix(tok, "nolint "); ok {
				cls = strings.TrimSpace(cls)
				if !validNoLintClass(cls) {
					return fmt.Errorf("bad nolint class %q", cls)
				}
				ann |= AnnNoLint
				nolint = append(nolint, cls)
				inClasses = true
				continue
			}
			bit, ok := annNames[tok]
			if !ok {
				return fmt.Errorf("unknown annotation %q", tok)
			}
			ann |= bit
		}
		line = strings.TrimSpace(line[:i])
	}

	// Guard predicate: "@%p1" or "@!%p1".
	guard, guardNeg := NoGuard, false
	if strings.HasPrefix(line, "@") {
		fields := strings.SplitN(line, " ", 2)
		if len(fields) != 2 {
			return fmt.Errorf("guard without instruction")
		}
		g := fields[0][1:]
		if strings.HasPrefix(g, "!") {
			guardNeg = true
			g = g[1:]
		}
		p, err := parsePred(g)
		if err != nil {
			return err
		}
		guard = int8(p)
		line = strings.TrimSpace(fields[1])
	}

	op, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	args := splitArgs(rest)

	emit := func(in Instr) {
		in.Guard, in.GuardNeg = guard, guardNeg
		in.Ann |= ann
		in.NoLint = nolint
		b.Emit(in)
	}

	switch {
	case op == "nop":
		emit(Instr{Op: OpNop})
	case op == "exit":
		emit(Instr{Op: OpExit})
	case op == "bar.sync" || op == "bar":
		emit(Instr{Op: OpBar})
	case op == "membar":
		emit(Instr{Op: OpMembar})
	case op == "mov":
		if len(args) != 2 {
			return fmt.Errorf("mov needs dst, src")
		}
		dst, err := parseReg(args[0])
		if err != nil {
			return err
		}
		a, err := parseOperand(args[1])
		if err != nil {
			return err
		}
		emit(Instr{Op: OpMov, Dst: dst, A: a})
	case op == "selp":
		if len(args) != 4 {
			return fmt.Errorf("selp needs dst, a, b, pred")
		}
		dst, err := parseReg(args[0])
		if err != nil {
			return err
		}
		a, err := parseOperand(args[1])
		if err != nil {
			return err
		}
		c, err := parseOperand(args[2])
		if err != nil {
			return err
		}
		p, err := parsePred(args[3])
		if err != nil {
			return err
		}
		emit(Instr{Op: OpSelp, Dst: dst, A: a, B: c, PSrc: p})
	case op == "ld.param":
		if len(args) != 2 {
			return fmt.Errorf("ld.param needs dst, index")
		}
		dst, err := parseReg(args[0])
		if err != nil {
			return err
		}
		idx, err := strconv.Atoi(args[1])
		if err != nil || idx < 0 || idx > 255 {
			return fmt.Errorf("bad parameter index %q", args[1])
		}
		emit(Instr{Op: OpLdParam, Dst: dst, Param: uint8(idx)})
	case strings.HasPrefix(op, "setp."):
		cmp, err := parseCmp(strings.TrimPrefix(op, "setp."))
		if err != nil {
			return err
		}
		if len(args) != 3 {
			return fmt.Errorf("setp needs pred, a, b")
		}
		p, err := parsePred(args[0])
		if err != nil {
			return err
		}
		a, err := parseOperand(args[1])
		if err != nil {
			return err
		}
		c, err := parseOperand(args[2])
		if err != nil {
			return err
		}
		emit(Instr{Op: OpSetp, Cmp: cmp, PDst: p, A: a, B: c})
	case op == "bra":
		target, reconv := "", ""
		for _, a := range strings.Fields(rest) {
			if v, ok := strings.CutPrefix(a, "reconv="); ok {
				reconv = v
			} else if target == "" {
				target = a
			} else {
				return fmt.Errorf("too many branch operands")
			}
		}
		if target == "" {
			return fmt.Errorf("branch without target")
		}
		// Route through the builder's fixup machinery; annotations and
		// guards are applied to the just-emitted instruction.
		if guard == NoGuard {
			b.Bra(target)
		} else {
			b.BraP(Pred(guard), guardNeg, target, reconv)
		}
		if ann != 0 {
			b.AnnotateLast(ann)
		}
		if len(nolint) > 0 {
			b.NoLintLast(nolint...)
		}
	case op == "ld.global" || op == "ld.volatile" || op == "ld":
		if len(args) != 2 {
			return fmt.Errorf("load needs dst, [addr]")
		}
		dst, err := parseReg(args[0])
		if err != nil {
			return err
		}
		base, off, err := parseAddr(args[1])
		if err != nil {
			return err
		}
		emit(Instr{Op: OpLd, Dst: dst, A: base, B: off, Vol: op == "ld.volatile"})
	case op == "st.global" || op == "st":
		if len(args) != 2 {
			return fmt.Errorf("store needs [addr], src")
		}
		base, off, err := parseAddr(args[0])
		if err != nil {
			return err
		}
		v, err := parseOperand(args[1])
		if err != nil {
			return err
		}
		emit(Instr{Op: OpSt, A: base, B: off, C: v})
	case op == "atom.cas":
		if len(args) != 4 {
			return fmt.Errorf("atom.cas needs dst, [addr], cmp, val")
		}
		dst, err := parseReg(args[0])
		if err != nil {
			return err
		}
		base, off, err := parseAddr(args[1])
		if err != nil {
			return err
		}
		cmp, err := parseOperand(args[2])
		if err != nil {
			return err
		}
		val, err := parseOperand(args[3])
		if err != nil {
			return err
		}
		emit(Instr{Op: OpAtomCAS, Dst: dst, A: base, B: off, C: cmp, D: val})
	case op == "atom.exch" || op == "atom.add" || op == "atom.max":
		if len(args) != 3 {
			return fmt.Errorf("%s needs dst, [addr], val", op)
		}
		dst, err := parseReg(args[0])
		if err != nil {
			return err
		}
		base, off, err := parseAddr(args[1])
		if err != nil {
			return err
		}
		val, err := parseOperand(args[2])
		if err != nil {
			return err
		}
		o := map[string]Op{"atom.exch": OpAtomExch, "atom.add": OpAtomAdd, "atom.max": OpAtomMax}[op]
		emit(Instr{Op: o, Dst: dst, A: base, B: off, C: val})
	default:
		aluOps := map[string]Op{
			"add": OpAdd, "sub": OpSub, "mul": OpMul, "div": OpDiv,
			"rem": OpRem, "min": OpMin, "max": OpMax, "and": OpAnd,
			"or": OpOr, "xor": OpXor, "shl": OpShl, "shr": OpShr,
		}
		o, ok := aluOps[op]
		if !ok {
			return fmt.Errorf("unknown opcode %q", op)
		}
		if len(args) != 3 {
			return fmt.Errorf("%s needs dst, a, b", op)
		}
		dst, err := parseReg(args[0])
		if err != nil {
			return err
		}
		a, err := parseOperand(args[1])
		if err != nil {
			return err
		}
		c, err := parseOperand(args[2])
		if err != nil {
			return err
		}
		emit(Instr{Op: o, Dst: dst, A: a, B: c})
	}
	return nil
}

// validNoLintClass accepts lowercase kebab-case finding-class names.
func validNoLintClass(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z':
		case c == '-' && i > 0 && i < len(s)-1:
		default:
			return false
		}
	}
	return true
}

func splitArgs(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	depth := 0
	start := 0
	for i, c := range s {
		switch c {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

func parseReg(s string) (Reg, error) {
	if !strings.HasPrefix(s, "%r") {
		return 0, fmt.Errorf("expected register, got %q", s)
	}
	n, err := strconv.Atoi(s[2:])
	if err != nil || n < 0 || n >= NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return Reg(n), nil
}

func parsePred(s string) (Pred, error) {
	if !strings.HasPrefix(s, "%p") {
		return 0, fmt.Errorf("expected predicate, got %q", s)
	}
	n, err := strconv.Atoi(s[2:])
	if err != nil || n < 0 || n >= NumPreds {
		return 0, fmt.Errorf("bad predicate %q", s)
	}
	return Pred(n), nil
}

var specialByName = map[string]Special{
	"%tid": SpecTID, "%ntid": SpecNTID, "%ctaid": SpecCTAID,
	"%nctaid": SpecNCTAID, "%laneid": SpecLaneID, "%warpid": SpecWarpID,
	"%smid": SpecSMID, "%gtid": SpecGTID, "%clock": SpecClock,
}

func parseOperand(s string) (Operand, error) {
	if sp, ok := specialByName[s]; ok {
		return S(sp), nil
	}
	if strings.HasPrefix(s, "%r") {
		r, err := parseReg(s)
		if err != nil {
			return Operand{}, err
		}
		return R(r), nil
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil || v < -1<<31 || v > 1<<32-1 {
		return Operand{}, fmt.Errorf("bad operand %q", s)
	}
	return I(int32(v)), nil
}

// parseAddr parses "[base+off]" where base and off are operands; either
// part may be omitted ("[%r1]", "[128]").
func parseAddr(s string) (base, off Operand, err error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return Operand{}, Operand{}, fmt.Errorf("expected [address], got %q", s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	parts := strings.SplitN(inner, "+", 2)
	base, err = parseOperand(strings.TrimSpace(parts[0]))
	if err != nil {
		return
	}
	if len(parts) == 2 {
		off, err = parseOperand(strings.TrimSpace(parts[1]))
		return
	}
	return base, I(0), nil
}

func parseCmp(s string) (Cmp, error) {
	for c := EQ; c <= GE; c++ {
		if cmpNames[c] == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown comparison %q", s)
}
