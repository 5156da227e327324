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
// ld, st and bar are short for ld.global, st.global and bar.sync.
// Operands written after nop, exit, bar.sync or membar are ignored, so
// PTX's "bar.sync 0" parses.
//
// A trailing "!a,b,c" annotates the instruction with any of: sib,
// acquire, release, waitcheck, sync, nolint. `sib` is accepted so that
// Assembly output parses back, but Build derives the SIB bit itself: a
// written `sib` neither makes nor unmakes one. A nolint token may carry a
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
			bit, ok := annByName[tok]
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
	in, ok := mnemonics[op]
	if !ok {
		if cmp, isSetp := strings.CutPrefix(op, "setp."); isSetp {
			return fmt.Errorf("unknown comparison %q", cmp)
		}
		return fmt.Errorf("unknown opcode %q", op)
	}
	in.Guard, in.GuardNeg, in.Ann, in.NoLint = guard, guardNeg, ann, nolint
	if in.Op == OpBra {
		return parseBra(b, &in, rest)
	}
	if slots := syntax[in.Op]; len(slots) > 0 {
		args := splitArgs(rest)
		if len(args) != len(slots) {
			names := make([]string, len(slots))
			for i, s := range slots {
				names[i] = slotNames[s]
			}
			noun := in.Op.String()
			if kind, ok := map[Op]string{OpLd: "load", OpSt: "store"}[in.Op]; ok {
				noun = kind // several mnemonics: name the kind
			}
			return fmt.Errorf("%s needs %s", noun, strings.Join(names, ", "))
		}
		for i, s := range slots {
			if err := in.parseSlot(s, args[i]); err != nil {
				return err
			}
		}
	}
	b.Emit(in)
	return nil
}

// parseSlot parses one operand into the field its slot names.
func (in *Instr) parseSlot(s slot, arg string) (err error) {
	switch s {
	case slotDst:
		in.Dst, err = parseReg(arg)
	case slotPDst:
		in.PDst, err = parsePred(arg)
	case slotPSrc:
		in.PSrc, err = parsePred(arg)
	case slotA, slotB, slotC, slotD:
		*in.operand(s), err = parseOperand(arg)
	case slotAddr:
		in.A, in.B, err = parseAddr(arg)
	case slotParam:
		in.Param, err = parseIndexed[uint8](arg, "", "parameter index", 256)
	}
	return err
}

// parseBra routes a branch through the builder's label fixups: its
// operands are a target label and, on a guarded branch, reconv=<label>.
func parseBra(b *Builder, in *Instr, rest string) error {
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
	if in.Guarded() {
		b.BraP(Pred(in.Guard), in.GuardNeg, target, reconv)
	} else {
		b.Bra(target)
	}
	if in.Ann != 0 {
		b.AnnotateLast(in.Ann)
	}
	if len(in.NoLint) > 0 {
		b.NoLintLast(in.NoLint...)
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

// parseIndexed parses prefix+N with 0 <= N < limit: a register (%rN), a
// predicate (%pN) or, with no prefix, a parameter index.
func parseIndexed[T ~uint8](s, prefix, what string, limit int) (T, error) {
	if !strings.HasPrefix(s, prefix) {
		return 0, fmt.Errorf("expected %s, got %q", what, s)
	}
	n, err := strconv.Atoi(s[len(prefix):])
	if err != nil || n < 0 || n >= limit {
		return 0, fmt.Errorf("bad %s %q", what, s)
	}
	return T(n), nil
}

func parseReg(s string) (Reg, error)   { return parseIndexed[Reg](s, "%r", "register", NumRegs) }
func parsePred(s string) (Pred, error) { return parseIndexed[Pred](s, "%p", "predicate", NumPreds) }

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
