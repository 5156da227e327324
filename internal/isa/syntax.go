package isa

import "strconv"

// The instruction text syntax, written once: Parse reads an instruction
// through these tables and Instr.appendTo prints one through them, for
// Assembly and Disasm alike.

// slot is one operand position of an instruction's text form.
type slot uint8

const (
	slotDst    slot = iota // %rN into Dst
	slotPDst               // %pN into PDst
	slotPSrc               // %pN into PSrc
	slotA                  // register, immediate or special register into A
	slotB                  // ... into B
	slotC                  // ... into C
	slotD                  // ... into D
	slotAddr               // [A+B], or [A] with B = 0
	slotParam              // parameter index 0..255 into Param
	slotTarget             // branch target, then reconv=<label> if guarded
)

var slotNames = [...]string{
	slotDst: "dst", slotPDst: "pred", slotPSrc: "pred", slotA: "a", slotB: "b",
	slotC: "c", slotD: "d", slotAddr: "[addr]", slotParam: "index", slotTarget: "target",
}

var (
	aluSlots  = []slot{slotDst, slotA, slotB}
	atomSlots = []slot{slotDst, slotAddr, slotC}
)

// syntax lists each opcode's operand slots in text order. An opcode with
// none (nop, exit, bar.sync, membar) ignores whatever follows it.
var syntax = [opCount][]slot{
	OpMov: {slotDst, slotA},
	OpAdd: aluSlots, OpSub: aluSlots, OpMul: aluSlots, OpDiv: aluSlots,
	OpRem: aluSlots, OpMin: aluSlots, OpMax: aluSlots, OpAnd: aluSlots,
	OpOr: aluSlots, OpXor: aluSlots, OpShl: aluSlots, OpShr: aluSlots,
	OpSetp:     {slotPDst, slotA, slotB},
	OpSelp:     {slotDst, slotA, slotB, slotPSrc},
	OpBra:      {slotTarget},
	OpLd:       {slotDst, slotAddr},
	OpSt:       {slotAddr, slotC},
	OpAtomCAS:  {slotDst, slotAddr, slotC, slotD},
	OpAtomExch: atomSlots, OpAtomAdd: atomSlots, OpAtomMax: atomSlots,
	OpLdParam: {slotDst, slotParam},
}

// operand returns the source operand field that slot A–D names.
func (in *Instr) operand(s slot) *Operand {
	return [...]*Operand{&in.A, &in.B, &in.C, &in.D}[s-slotA]
}

// mnemonic is the opcode as written: its opNames entry, except that setp
// carries its comparison and a volatile load is ld.volatile.
func (in *Instr) mnemonic() string { return string(in.appendMnemonic(nil)) }

// appendMnemonic appends mnemonic's text.
func (in *Instr) appendMnemonic(b []byte) []byte {
	switch {
	case in.Op == OpSetp:
		return append(append(b, "setp."...), in.Cmp.String()...)
	case in.Op == OpLd && in.Vol:
		return append(b, "ld.volatile"...)
	}
	return append(b, in.Op.String()...)
}

// mnemonics inverts mnemonic over every opcode, comparison and load kind,
// and adds the short forms Parse also accepts. Each value is the
// instruction a mnemonic starts.
var mnemonics = func() map[string]Instr {
	m := make(map[string]Instr)
	for op := Op(0); op < opCount; op++ {
		for c := Cmp(0); int(c) < len(cmpNames); c++ {
			for _, vol := range [...]bool{false, true} {
				in := Instr{Op: op, Cmp: c, Vol: vol}
				if _, dup := m[in.mnemonic()]; !dup {
					m[in.mnemonic()] = in
				}
			}
		}
	}
	for short, full := range map[string]string{"ld": "ld.global", "st": "st.global", "bar": "bar.sync"} {
		m[short] = m[full]
	}
	return m
}()

// annNames names the annotation bits in text order. nolint comes last
// because its class list runs to the end of the line.
var annNames = [...]struct {
	bit  Ann
	name string
}{
	{AnnSIB, "sib"}, {AnnLockAcquire, "acquire"}, {AnnLockRelease, "release"},
	{AnnWaitCheck, "waitcheck"}, {AnnSync, "sync"}, {AnnNoLint, "nolint"},
}

var annByName = func() map[string]Ann {
	m := make(map[string]Ann, len(annNames))
	for _, a := range annNames {
		m[a.name] = a.bit
	}
	return m
}()

var specialByName = func() map[string]Special {
	m := make(map[string]Special, len(specialNames))
	for s, name := range specialNames {
		m[name] = Special(s)
	}
	return m
}()

// appendTo appends the instruction in the syntax Parse reads; label
// appends a branch target or reconvergence PC.
func (in *Instr) appendTo(b []byte, label func([]byte, int32) []byte) []byte {
	if in.Guarded() {
		b = append(b, '@')
		if in.GuardNeg {
			b = append(b, '!')
		}
		b = appendIndexed(b, "%p", int64(in.Guard))
		b = append(b, ' ')
	}
	b = in.appendMnemonic(b)
	var slots []slot
	if in.Op < opCount {
		slots = syntax[in.Op]
	}
	for i, s := range slots {
		if i == 0 {
			b = append(b, ' ')
		} else {
			b = append(b, ", "...)
		}
		switch s {
		case slotDst:
			b = appendIndexed(b, "%r", int64(in.Dst))
		case slotPDst:
			b = appendIndexed(b, "%p", int64(in.PDst))
		case slotPSrc:
			b = appendIndexed(b, "%p", int64(in.PSrc))
		case slotA, slotB, slotC, slotD:
			b = in.operand(s).appendTo(b)
		case slotAddr:
			b = append(b, '[')
			b = in.A.appendTo(b)
			if in.B.Kind != OpdNone {
				b = append(b, '+')
				b = in.B.appendTo(b)
			}
			b = append(b, ']')
		case slotParam:
			b = appendIndexed(b, "", int64(in.Param))
		case slotTarget:
			b = label(b, in.Target)
			if in.Guarded() && in.Reconv != NoReconv {
				b = append(b, " reconv="...)
				b = label(b, in.Reconv)
			}
		}
	}
	if in.Ann == 0 {
		return b
	}
	sep := " !"
	for _, a := range annNames {
		if !in.HasAnn(a.bit) {
			continue
		}
		b = append(b, sep...)
		sep = ","
		if a.bit == AnnNoLint && len(in.NoLint) > 0 {
			b = append(b, "nolint "...)
			b = append(b, in.NoLint[0]...)
			for _, n := range in.NoLint[1:] {
				b = append(b, ',')
				b = append(b, n...)
			}
			continue
		}
		b = append(b, a.name...)
	}
	return b
}

// appendIndexed appends prefix followed by n in decimal.
func appendIndexed(b []byte, prefix string, n int64) []byte {
	return strconv.AppendInt(append(b, prefix...), n, 10)
}
