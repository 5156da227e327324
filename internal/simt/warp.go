// Package simt models SIMT execution state: warps with register-major
// register files and predicate masks, the stack-based reconvergence
// mechanism of pre-Volta NVIDIA GPUs (the architecture the paper targets),
// divergence/reconvergence on annotated branches, CTA barriers, and the
// functional execution of one warp instruction as an operation on 32-lane
// rows over a program decoded once (Table).
//
// Functional effects of non-memory instructions are applied immediately;
// memory instructions return the per-lane accesses for the memory system
// to perform at service time, so atomics interleave in simulated-time
// order (see internal/mem).
package simt

import (
	"fmt"
	"math/bits"

	"warpsched/internal/isa"
	"warpsched/internal/mem"
)

// StackEntry is one SIMT reconvergence stack entry.
type StackEntry struct {
	PC     int32
	Reconv int32 // reconvergence PC; NoReconv for the base entry
	Mask   uint32
}

// CTA groups the warps of one cooperative thread array for barriers and
// special registers.
type CTA struct {
	ID         int32
	ThreadsPer int32 // threads per CTA (blockDim.x)
	GridCTAs   int32 // gridDim.x
	NumWarps   int
	// barrier bookkeeping
	arrived int
	waiting []*Warp
	// liveWarps counts warps that have not fully exited.
	liveWarps int
	// Released latches a barrier release — every live warp arrived, or
	// the last straggler exited while others waited. Purely
	// observational: the engine's Observer wiring consumes and clears
	// it; nothing else reads it.
	Released bool
}

// Warp is one resident warp's complete architectural state.
type Warp struct {
	Prog *isa.Program
	CTA  *CTA
	// IDInCTA is the warp's index within its CTA; Slot its SM warp slot.
	IDInCTA int
	Slot    int
	SM      int
	// GTIDBase is the global thread id of lane 0.
	GTIDBase int32
	// Params are the kernel parameters read by OpLdParam.
	Params []uint32

	Stack  []StackEntry
	Exited uint32 // lanes that executed OpExit
	Valid  uint32 // lanes that exist (partial last warp)
	// ProfiledLane is the thread whose setp operands feed the DDOS
	// history registers: re-latched to the lowest lane taking each
	// backward branch (the thread staying in the loop), so guarded setps
	// executed by other lanes are skipped rather than mixed in.
	ProfiledLane int
	Done         bool
	// AtBarrier marks the warp blocked on bar.sync.
	AtBarrier bool

	tab *Table
	// regs is register-major: regs[r] is register r's 32-lane row, so a
	// source operand is one contiguous row and a destination another. It
	// holds the rows of the registers the program names (Table.nregs), not
	// all isa.NumRegs: Execute touches no other. A register past its end
	// reads 0 through Reg, and SetReg or RegRow grows the file to fit. It
	// and memScratch are allocations of their own (pointer-free, so never
	// scanned): held inside the Warp they measured +6 MB of peak RSS on the
	// issue_bound benchmark.
	regs []row
	// preds[p] holds predicate p of lane l in bit l.
	preds [isa.NumPreds]uint32

	// memScratch backs ExecResult.Mem. The engine hands that buffer to its
	// memory request and gives the warp the request's free one (HandOff)
	// before the warp's next Execute, so the accesses are built once and
	// never copied, and the issue path stays allocation-free.
	memScratch []mem.Access
}

// row is one value per lane.
type row = [isa.WarpSize]uint32

const fullMask = ^uint32(0)

// NewCTA creates barrier state for a CTA of numWarps warps.
func NewCTA(id, threadsPer, gridCTAs int32, numWarps int) *CTA {
	return &CTA{ID: id, ThreadsPer: threadsPer, GridCTAs: gridCTAs,
		NumWarps: numWarps, liveWarps: numWarps}
}

// NewWarp creates a warp with valid lanes [0,lanes) and a full active
// mask, PC 0, decoding prog for it. Warps of one launch share a table
// instead: Decode once, then Table.NewWarp.
func NewWarp(prog *isa.Program, cta *CTA, idInCTA, slot, sm int, gtidBase int32, lanes int) *Warp {
	return Decode(prog).NewWarp(cta, idInCTA, slot, sm, gtidBase, lanes)
}

// NewWarp creates a warp executing t's program with valid lanes [0,lanes)
// and a full active mask, PC 0.
func (t *Table) NewWarp(cta *CTA, idInCTA, slot, sm int, gtidBase int32, lanes int) *Warp {
	valid := fullMask
	if lanes < 32 {
		valid = (uint32(1) << lanes) - 1
	}
	w := &Warp{
		Prog: t.Prog, CTA: cta, IDInCTA: idInCTA, Slot: slot, SM: sm,
		GTIDBase: gtidBase, Valid: valid,
		tab:        t,
		regs:       make([]row, t.nregs),
		memScratch: make([]mem.Access, isa.WarpSize),
	}
	w.Stack = append(w.Stack, StackEntry{PC: 0, Reconv: isa.NoReconv, Mask: valid})
	w.ProfiledLane = bits.TrailingZeros32(valid)
	return w
}

// Reg returns lane's register r (for tests and result verification); a
// register the program never names reads 0 until SetReg writes it.
func (w *Warp) Reg(lane int, r isa.Reg) uint32 {
	if int(r) >= len(w.regs) {
		return 0
	}
	return w.regs[r][lane]
}

// SetReg sets lane's register r, growing the register file when the
// program never names r.
func (w *Warp) SetReg(lane int, r isa.Reg, v uint32) { w.RegRow(r)[lane] = v }

// RegRow returns register r's 32-lane row, for writing back a memory
// instruction's results without re-indexing per lane. Like SetReg it
// grows the register file to hold r.
func (w *Warp) RegRow(r isa.Reg) *[isa.WarpSize]uint32 {
	if n := int(r) + 1; n > len(w.regs) {
		w.regs = append(w.regs, make([]row, n-len(w.regs))...)
	}
	return &w.regs[r]
}

// PredVal returns lane's predicate p.
func (w *Warp) PredVal(lane int, p isa.Pred) bool { return w.preds[p]>>uint(lane)&1 != 0 }

// SetPred sets lane's predicate p.
func (w *Warp) SetPred(lane int, p isa.Pred, v bool) {
	w.preds[p] &^= 1 << uint(lane)
	if v {
		w.preds[p] |= 1 << uint(lane)
	}
}

// PC returns the current program counter (top of SIMT stack).
func (w *Warp) PC() int32 { return w.Stack[len(w.Stack)-1].PC }

// ActiveMask returns the lanes that will execute the next instruction.
func (w *Warp) ActiveMask() uint32 {
	if w.Done {
		return 0
	}
	return w.Stack[len(w.Stack)-1].Mask &^ w.Exited
}

// NextInstr returns the instruction the warp will execute next.
func (w *Warp) NextInstr() *isa.Instr {
	return w.Prog.At(w.PC())
}

// EvalAddr computes the effective address in.A + in.B of a memory
// instruction for lane, without executing it. Hang diagnosis uses it to
// name the lock word a stuck acquire is waiting on; address operands
// never read %clock, so the clock is evaluated as zero.
func (w *Warp) EvalAddr(in *isa.Instr, lane int) uint32 {
	a, b := w.resolve(decodeOperand(in.A), 0), w.resolve(decodeOperand(in.B), 0)
	return a.at(lane) + b.at(lane)
}

// popReconverged pops stack entries whose PC reached their reconvergence
// point, merging divergent paths, and retires empty entries.
func (w *Warp) popReconverged() {
	for len(w.Stack) > 1 {
		top := &w.Stack[len(w.Stack)-1]
		if top.Mask&^w.Exited == 0 || (top.Reconv != isa.NoReconv && top.PC == top.Reconv) {
			w.Stack = w.Stack[:len(w.Stack)-1]
			continue
		}
		return
	}
	if w.Stack[0].Mask&^w.Exited == 0 {
		w.finish()
	}
}

func (w *Warp) finish() {
	if !w.Done {
		w.Done = true
		w.CTA.warpFinished()
	}
}

// warpFinished accounts a retired warp and releases the barrier if the
// remaining live warps have all arrived.
func (c *CTA) warpFinished() {
	c.liveWarps--
	if c.arrived > 0 && c.arrived >= c.liveWarps {
		c.release()
	}
}

// release unblocks every waiting warp and drops the CTA's references to
// them, so a warp that waited once can be collected after it retires.
func (c *CTA) release() {
	for _, ww := range c.waiting {
		ww.AtBarrier = false
	}
	clear(c.waiting)
	c.waiting = c.waiting[:0]
	c.arrived = 0
	c.Released = true
}

// src is an operand resolved for one execution: a register row read in
// place, or the value base + step*lane.
type src struct {
	row        *row
	base, step uint32
}

// resolve evaluates what of o is the same for every lane.
func (w *Warp) resolve(o operand, clock int64) src {
	switch o.kind {
	case opdReg:
		return src{row: &w.regs[o.val]}
	case opdLaneID:
		return src{step: 1}
	case opdTID:
		return src{base: uint32(w.IDInCTA * 32), step: 1}
	case opdGTID:
		return src{base: uint32(w.GTIDBase), step: 1}
	case opdNTID:
		return src{base: uint32(w.CTA.ThreadsPer)}
	case opdCTAID:
		return src{base: uint32(w.CTA.ID)}
	case opdNCTAID:
		return src{base: uint32(w.CTA.GridCTAs)}
	case opdWarpID:
		return src{base: uint32(w.IDInCTA)}
	case opdSMID:
		return src{base: uint32(w.SM)}
	case opdClock:
		return src{base: uint32(clock)}
	}
	return src{base: o.val}
}

// at returns the operand's value for lane.
func (s *src) at(lane int) uint32 {
	if s.row != nil {
		return s.row[lane]
	}
	return s.base + s.step*uint32(lane)
}

// full returns the operand as a whole row: the register row itself, or buf
// filled in.
func (s *src) full(buf *row) *row {
	if s.row != nil {
		return s.row
	}
	for i := range buf {
		buf[i] = s.base + s.step*uint32(i)
	}
	return buf
}

// MemAccess is one lane's pending access. It is the memory system's own
// record, so the accesses Execute builds are the ones the memory request
// carries.
type MemAccess = mem.Access

// HandOff gives the warp buf, which must have capacity isa.WarpSize, as
// the backing of its next memory instruction's accesses; the caller keeps
// the slice the last Execute returned in ExecResult.Mem.
func (w *Warp) HandOff(buf []mem.Access) { w.memScratch = buf[:isa.WarpSize] }

// ExecResult describes the side effects of executing one instruction.
type ExecResult struct {
	// Instr is the executed instruction; PC its address.
	Instr *isa.Instr
	PC    int32
	// EffMask is the lanes that actually executed (active ∧ guard); for
	// branches it is the full active mask.
	EffMask uint32
	// Mem holds per-lane accesses for memory operations (nil otherwise).
	Mem []mem.Access
	// Branch fields.
	IsBranch      bool
	Taken         uint32 // lanes that took the branch
	NotTaken      uint32
	BackwardTaken bool // branch was backward and taken by ≥1 lane
	// Setp observation for DDOS: source values of the first active lane
	// (the profiled thread), and which lane that was.
	IsSetp         bool
	SetpLane       int
	SetpV1, SetpV2 uint32
}

// ActiveLanes returns the number of executing lanes.
func (r *ExecResult) ActiveLanes() int { return bits.OnesCount32(r.EffMask) }

// Execute runs the instruction at the warp's PC. clock is the SM cycle
// (for %clock). Memory instructions compute addresses and operands but
// defer data movement to the memory system: the caller writes loaded values
// back (RegRow) once they are available. All other instructions commit
// immediately and the PC/stack advance before returning.
func (w *Warp) Execute(clock int64) (res ExecResult) {
	if w.Done {
		panic("simt: Execute on finished warp")
	}
	top := &w.Stack[len(w.Stack)-1]
	pc := top.PC
	d := &w.tab.code[pc]
	active := top.Mask &^ w.Exited
	res = ExecResult{Instr: w.Prog.At(pc), PC: pc, EffMask: active}

	if d.op == isa.OpBra {
		w.execBranch(d, pc, active, &res)
		w.popReconverged()
		return res
	}

	eff := w.guardMask(d, active)
	res.EffMask = eff

	switch d.op {
	case isa.OpNop, isa.OpMembar, isa.OpBar:
		// Timing, and barrier arrival (CTA.Arrive), are the engine's.
	case isa.OpExit:
		w.Exited |= eff
	case isa.OpMov, isa.OpLdParam, isa.OpSelp,
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem,
		isa.OpMin, isa.OpMax, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr:
		w.execALU(d, eff, clock)
	case isa.OpSetp:
		w.execSetp(d, eff, clock, &res)
	case isa.OpLd, isa.OpSt, isa.OpAtomCAS, isa.OpAtomExch, isa.OpAtomAdd, isa.OpAtomMax:
		res.Mem = w.buildAccesses(d, eff, clock)
	default:
		panic(fmt.Sprintf("simt: unimplemented opcode %v", d.op))
	}

	top.PC = pc + 1
	w.popReconverged()
	return res
}

// guardMask returns the lanes in mask whose guard predicate passes.
func (w *Warp) guardMask(d *Inst, mask uint32) uint32 {
	if d.guard == isa.NoGuard {
		return mask
	}
	g := w.preds[d.guard]
	if d.guardNeg {
		g = ^g
	}
	return mask & g
}

// execALU writes the destination row of a register-writing instruction for
// the lanes in eff. With every lane executing it is one loop over whole
// rows, the opcode chosen outside it; otherwise only the set lanes are
// visited. A destination that is also a source is safe either way: each
// lane reads its own elements before writing its own.
func (w *Warp) execALU(d *Inst, eff uint32, clock int64) {
	if eff == 0 {
		return
	}
	dst := &w.regs[d.dst]
	var a, b src
	switch d.op {
	case isa.OpLdParam:
		if int(d.param) >= len(w.Params) {
			panic(fmt.Sprintf("simt: %s: ld.param %d out of range (%d params)",
				w.Prog.Name, d.param, len(w.Params)))
		}
		a.base = w.Params[d.param]
	case isa.OpMov:
		a = w.resolve(d.a, clock)
	default:
		a, b = w.resolve(d.a, clock), w.resolve(d.b, clock)
	}

	if eff != fullMask {
		sel := w.preds[d.psrc]
		for m := eff; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			dst[lane] = alu(d.op, a.at(lane), b.at(lane), sel>>uint(lane)&1 != 0)
		}
		return
	}
	if d.op == isa.OpMov || d.op == isa.OpLdParam {
		if a.row != nil {
			*dst = *a.row
		} else {
			a.full(dst)
		}
		return
	}

	var bufA, bufB row
	ra, rb := a.full(&bufA), b.full(&bufB)
	switch d.op {
	case isa.OpSelp:
		sel := w.preds[d.psrc]
		for i := range dst {
			if sel>>uint(i)&1 != 0 {
				dst[i] = ra[i]
			} else {
				dst[i] = rb[i]
			}
		}
	case isa.OpAdd:
		for i := range dst {
			dst[i] = ra[i] + rb[i]
		}
	case isa.OpSub:
		for i := range dst {
			dst[i] = ra[i] - rb[i]
		}
	case isa.OpMul:
		for i := range dst {
			dst[i] = ra[i] * rb[i]
		}
	case isa.OpAnd:
		for i := range dst {
			dst[i] = ra[i] & rb[i]
		}
	case isa.OpOr:
		for i := range dst {
			dst[i] = ra[i] | rb[i]
		}
	case isa.OpXor:
		for i := range dst {
			dst[i] = ra[i] ^ rb[i]
		}
	case isa.OpShl:
		for i := range dst {
			dst[i] = ra[i] << (rb[i] & 31)
		}
	case isa.OpShr:
		for i := range dst {
			dst[i] = ra[i] >> (rb[i] & 31)
		}
	default: // div, rem, min, max: branchy per lane, share the scalar form
		for i := range dst {
			dst[i] = alu(d.op, ra[i], rb[i], false)
		}
	}
}

// alu computes one lane of a register-writing instruction; sel is the
// lane's selp predicate.
func alu(op isa.Op, a, b uint32, sel bool) uint32 {
	sa, sb := int32(a), int32(b)
	switch op {
	case isa.OpMov, isa.OpLdParam:
		return a
	case isa.OpSelp:
		if sel {
			return a
		}
		return b
	case isa.OpAdd:
		return a + b
	case isa.OpSub:
		return a - b
	case isa.OpMul:
		return a * b
	case isa.OpDiv:
		if sb == 0 {
			return 0
		}
		return uint32(sa / sb)
	case isa.OpRem:
		if sb == 0 {
			return 0
		}
		return uint32(sa % sb)
	case isa.OpMin:
		if sa < sb {
			return a
		}
		return b
	case isa.OpMax:
		if sa > sb {
			return a
		}
		return b
	case isa.OpAnd:
		return a & b
	case isa.OpOr:
		return a | b
	case isa.OpXor:
		return a ^ b
	case isa.OpShl:
		return a << (b & 31)
	case isa.OpShr:
		return a >> (b & 31)
	}
	panic("simt: alu: bad opcode")
}

// execSetp builds the comparison's lane mask and merges it into the
// destination predicate under eff.
func (w *Warp) execSetp(d *Inst, eff uint32, clock int64, res *ExecResult) {
	// A setp record is produced only when the warp's profiled thread
	// executes the setp, so the history never mixes values from
	// different threads. If the profiled thread has exited, fall back
	// to the lowest live lane.
	if w.Valid&^w.Exited&(1<<w.ProfiledLane) == 0 {
		w.ProfiledLane = bits.TrailingZeros32(w.Valid &^ w.Exited)
	}
	a, b := w.resolve(d.a, clock), w.resolve(d.b, clock)
	var hit uint32
	if eff == fullMask {
		var bufA, bufB row
		hit = cmpRows(d.cmp, a.full(&bufA), b.full(&bufB))
	} else {
		for m := eff; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			if d.cmp.Eval(a.at(lane), b.at(lane)) {
				hit |= 1 << uint(lane)
			}
		}
	}
	w.preds[d.pdst] = w.preds[d.pdst]&^eff | hit
	if lane := w.ProfiledLane; eff&(1<<lane) != 0 {
		res.IsSetp, res.SetpLane = true, lane
		res.SetpV1, res.SetpV2 = a.at(lane), b.at(lane)
	}
}

// cmpRows returns the lanes for which a[lane] c b[lane] holds (signed).
func cmpRows(c isa.Cmp, a, b *row) (hit uint32) {
	switch c {
	case isa.EQ:
		for i := range a {
			hit |= bit(a[i] == b[i]) << uint(i)
		}
	case isa.NE:
		for i := range a {
			hit |= bit(a[i] != b[i]) << uint(i)
		}
	case isa.LT:
		for i := range a {
			hit |= bit(int32(a[i]) < int32(b[i])) << uint(i)
		}
	case isa.LE:
		for i := range a {
			hit |= bit(int32(a[i]) <= int32(b[i])) << uint(i)
		}
	case isa.GT:
		for i := range a {
			hit |= bit(int32(a[i]) > int32(b[i])) << uint(i)
		}
	case isa.GE:
		for i := range a {
			hit |= bit(int32(a[i]) >= int32(b[i])) << uint(i)
		}
	}
	return hit
}

// bit is 1 when v holds (compiled without a branch).
func bit(v bool) uint32 {
	var x uint32
	if v {
		x = 1
	}
	return x
}

// buildAccesses builds the per-lane access list for a memory instruction
// in the warp's scratch buffer (valid until the warp's next Execute unless
// HandOff replaces the buffer first). The operands are resolved once;
// slots the opcode does not read are the constant 0 (see Inst).
func (w *Warp) buildAccesses(d *Inst, eff uint32, clock int64) []mem.Access {
	a, b := w.resolve(d.a, clock), w.resolve(d.b, clock)
	c, e := w.resolve(d.c, clock), w.resolve(d.d, clock)
	// Fields are stored in place: a composite built on the stack and copied
	// in stalls on store forwarding.
	buf := w.memScratch
	n := 0
	for m := eff; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		acc := &buf[n]
		acc.Lane = lane
		acc.Addr = a.at(lane) + b.at(lane)
		acc.V1, acc.V2 = c.at(lane), e.at(lane)
		acc.Result, acc.GTID = 0, w.GTIDBase+int32(lane)
		n++
	}
	return buf[:n]
}

// execBranch updates the SIMT stack for a (possibly divergent) branch.
func (w *Warp) execBranch(d *Inst, pc int32, active uint32, res *ExecResult) {
	res.IsBranch = true
	top := &w.Stack[len(w.Stack)-1]
	if d.guard == isa.NoGuard {
		// Unconditional: all active lanes jump, no divergence.
		res.Taken = active
		top.PC = d.target
		res.BackwardTaken = d.target <= pc && active != 0
		if res.BackwardTaken {
			w.ProfiledLane = bits.TrailingZeros32(active)
		}
		return
	}
	taken := w.guardMask(d, active)
	notTaken := active &^ taken
	res.Taken, res.NotTaken = taken, notTaken
	res.BackwardTaken = d.target <= pc && taken != 0
	if res.BackwardTaken {
		// Loop boundary: the profiled thread for the next iteration is
		// the lowest lane staying in the loop.
		w.ProfiledLane = bits.TrailingZeros32(taken)
	}
	switch {
	case taken == 0:
		top.PC = pc + 1
	case notTaken == 0:
		top.PC = d.target
	default:
		// Standard reconvergence-stack divergence: the current entry
		// becomes the reconvergence entry; the not-taken path is pushed
		// below the taken path, so the taken side executes first.
		top.PC = d.reconv
		w.Stack = append(w.Stack,
			StackEntry{PC: pc + 1, Reconv: d.reconv, Mask: notTaken},
			StackEntry{PC: d.target, Reconv: d.reconv, Mask: taken},
		)
	}
}

// Arrive registers the warp at its CTA barrier; it returns true when the
// barrier released (all live warps arrived), in which case every waiting
// warp including this one has been unblocked.
func (c *CTA) Arrive(w *Warp) bool {
	w.AtBarrier = true
	c.arrived++
	c.waiting = append(c.waiting, w)
	if c.arrived < c.liveWarps {
		return false
	}
	c.release()
	return true
}

// LiveWarps returns the CTA's not-yet-finished warp count.
func (c *CTA) LiveWarps() int { return c.liveWarps }
