// Forward-progress monitoring and hang diagnosis. The paper's subject is
// warps that stop making progress — spinning on locks, backed off,
// parked in queues — and a mis-scheduled or buggy configuration can turn
// that into a whole-machine hang. Instead of burning the full MaxCycles
// budget and guessing ("livelock?"), the engine samples cheap progress
// counters every monitor window and classifies a stall:
//
//   - deadlock: no warp committed any instruction for a whole window —
//     every warp is blocked (parked lock acquires, wedged memory), and
//     nothing in flight can unblock one.
//   - livelock: warps commit instructions but none of it is useful
//     progress (no lock acquired, no wait exited, no warp finished) and
//     there is spin evidence: SIB executions or failed acquires/waits.
//   - starvation: no useful progress, and some ready warp went a whole
//     window without being scheduled while its SM kept issuing (e.g. GTO
//     greedily re-picking an always-ready warp forever).
//
// A classification must repeat over two consecutive windows before the
// engine acts on it, so momentary stalls (memory bursts, back-off
// plateaus) never trigger. Monitoring is passive and always on — it only
// reads counters, so simulated behavior and golden stats are
// byte-identical — but the engine aborts early on a confirmed hang only
// when Options.Check arms it. Either way, every watchdog error carries a
// structured HangReport naming the stuck warps.
package sim

import (
	"fmt"
	"sort"
	"strings"

	"warpsched/internal/config"
	"warpsched/internal/core"
	"warpsched/internal/isa"
	"warpsched/internal/mem"
	"warpsched/internal/simt"
)

// HangClass is the diagnosis of a forward-progress stall.
type HangClass string

const (
	// HangDeadlock: no warp committed any instruction for a whole window.
	HangDeadlock HangClass = "deadlock"
	// HangLivelock: instructions issued but none useful (all spin work).
	HangLivelock HangClass = "livelock"
	// HangStarvation: a runnable warp went a whole window unscheduled
	// while its SM kept issuing.
	HangStarvation HangClass = "starvation"
	// HangUnknown means the monitor saw no confirmed hang signature (the
	// class on plain MaxCycles watchdog aborts of slow-but-progressing
	// runs).
	HangUnknown HangClass = "unknown"
)

// DefaultHangWindow is the progress-sample period (and, when Options.Check
// arms early aborts, the no-progress window that triggers an abort after
// two consecutive confirmations). It is chosen well above every
// legitimate stall the machine can produce (DRAM round trips are
// hundreds of cycles, BOWS back-off delays top out around 10k) and well
// below the experiment watchdog budget, so a seeded hang is classified
// within a few percent of MaxCycles.
const DefaultHangWindow int64 = 200_000

// WarpHang is one resident warp's state at hang-report time.
type WarpHang struct {
	SM   int
	Slot int
	PC   int32
	// State summarizes why the warp is not running: "done", "barrier",
	// "parked-lock", "backed-off", "mem-wait", "scoreboard" or "ready".
	State string
	// AtBarrier/BackedOff/Spinning are the raw flags behind State.
	AtBarrier bool
	BackedOff bool
	Spinning  bool
	// IssuedInWindow counts instructions the warp committed during the
	// last monitor window (0 = it never ran).
	IssuedInWindow int64
	// OutstandingMem is the warp's in-flight memory instruction count.
	OutstandingMem int
	// PendingLock is the lock word the warp is waiting to acquire (parked
	// in a lock queue, or about to issue an annotated acquire), valid when
	// HasPendingLock.
	PendingLock    uint32
	HasPendingLock bool
}

// String renders the warp's location and, when known, its parked lock.
func (w WarpHang) String() string {
	s := fmt.Sprintf("sm%d/w%d pc=%d %s", w.SM, w.Slot, w.PC, w.State)
	if w.HasPendingLock {
		s += fmt.Sprintf(" lock@%d", w.PendingLock)
	}
	return s
}

// SMSIBPT is one SM's spin-inducing-branch prediction table snapshot.
type SMSIBPT struct {
	SM      int
	Entries []core.SIBView
}

// HangReport is the structured diagnosis attached to a HangError: what
// every warp was doing, what the detector believed, and what the memory
// system still held when progress stopped.
type HangReport struct {
	Class  HangClass
	Cycle  int64
	Window int64
	Kernel string
	GPU    string
	Sched  config.SchedulerKind

	CTAsDone  int
	TotalCTAs int

	// Progress deltas over the last monitor window: instructions
	// committed, useful progress events (lock acquires, wait exits,
	// finished warps, finished CTAs) and spin evidence (SIB executions,
	// failed acquires, failed wait exits).
	IssuedInWindow int64
	UsefulInWindow int64
	SpinInWindow   int64

	// Warps lists every resident warp, most-stuck first.
	Warps []WarpHang
	// SIBPT is the per-SM spin-detector table snapshot.
	SIBPT []SMSIBPT
	// MSHRLines is each SM's outstanding L1 miss-line count.
	MSHRLines []int
	// Mem summarizes the memory system's in-flight work.
	Mem mem.InFlightSummary
}

// TopStuck returns up to n of the most-stuck warps (fewest instructions
// committed in the window, finished warps excluded).
func (r *HangReport) TopStuck(n int) []WarpHang {
	out := make([]WarpHang, 0, n)
	for _, w := range r.Warps {
		if w.State == "done" {
			continue
		}
		out = append(out, w)
		if len(out) == n {
			break
		}
	}
	return out
}

// StuckSummary renders the top-n stuck warps as one compact fragment for
// log lines (e.g. "sm0/w1 pc=4 parked-lock lock@64; sm0/w2 ...").
func (r *HangReport) StuckSummary(n int) string {
	top := r.TopStuck(n)
	if len(top) == 0 {
		return "no resident warps"
	}
	parts := make([]string, len(top))
	for i, w := range top {
		parts[i] = w.String()
	}
	return strings.Join(parts, "; ")
}

// HangError is returned by Engine.Run when the machine stops making
// progress: either an early abort on a confirmed hang (Options.Check
// armed) or the MaxCycles/drain watchdog (Watchdog true, classification
// best-effort). The partial Result is returned alongside it.
type HangError struct {
	Report   *HangReport
	Watchdog bool
	// MaxCycles is the exceeded budget on watchdog aborts.
	MaxCycles int64
}

// Error renders the full diagnosis: classification, progress deltas and
// the top stuck warps.
func (e *HangError) Error() string {
	r := e.Report
	if e.Watchdog {
		return fmt.Sprintf("sim: %s on %s/%s: exceeded MaxCycles=%d (%d/%d CTAs done) — classified %s; stuck: %s",
			r.Kernel, r.GPU, r.Sched, e.MaxCycles, r.CTAsDone, r.TotalCTAs, r.Class, r.StuckSummary(3))
	}
	return fmt.Sprintf("sim: %s on %s/%s: %s detected at cycle %d (issued %d, useful 0 over %d-cycle window; %d/%d CTAs done); stuck: %s",
		r.Kernel, r.GPU, r.Sched, r.Class, r.Cycle, r.IssuedInWindow, r.Window,
		r.CTAsDone, r.TotalCTAs, r.StuckSummary(3))
}

// Summary is the one-line form used by runner progress output: the
// classification plus the top-3 stuck warps.
func (e *HangError) Summary() string {
	r := e.Report
	label := string(r.Class)
	switch {
	case e.Watchdog && r.Class == HangUnknown:
		label = "watchdog"
	case e.Watchdog:
		label = "watchdog/" + string(r.Class)
	}
	return fmt.Sprintf("%s at %d cycles; stuck: %s", label, r.Cycle, r.StuckSummary(3))
}

// slotTrack remembers one warp slot's occupant and issue count at the
// previous sample, for per-warp starvation deltas across a window.
type slotTrack struct {
	warp   *simt.Warp
	issued int64
}

// hangMonitor samples the engine's progress counters once per window.
type hangMonitor struct {
	eng  *Engine
	next int64

	prevIssued int64
	prevUseful int64
	prevSpin   int64
	prevSlots  [][]slotTrack

	// last window's deltas and classification (best-effort context for
	// the MaxCycles watchdog).
	lastIssuedD int64
	lastUsefulD int64
	lastSpinD   int64
	lastClass   HangClass
	// pending is the candidate class awaiting a second consecutive
	// confirmation before the monitor reports it.
	pending HangClass
}

func newHangMonitor(e *Engine) *hangMonitor {
	hm := &hangMonitor{eng: e, next: DefaultHangWindow,
		pending: HangUnknown, lastClass: HangUnknown}
	hm.prevSlots = make([][]slotTrack, len(e.sms))
	for i, m := range e.sms {
		hm.prevSlots[i] = make([]slotTrack, len(m.warps))
	}
	hm.snapshotSlots()
	return hm
}

// progressSignals reads the monotone progress counters: total committed
// instructions, useful progress events and spin evidence.
func (e *Engine) progressSignals() (issued, useful, spin int64) {
	warpsPerCTA := (e.launch.CTAThreads + 31) / 32
	useful = int64(e.ctasDone * warpsPerCTA)
	for _, m := range e.sms {
		st := &m.st
		issued += st.WarpInstrs
		useful += st.Sync.LockSuccess + st.Sync.WaitExitSuccess
		spin += st.SIBInstrs + st.Sync.InterWarpFail + st.Sync.IntraWarpFail + st.Sync.WaitExitFail
		for _, w := range m.warps {
			if w != nil && w.Done {
				useful++
			}
		}
	}
	return issued, useful, spin
}

func (hm *hangMonitor) snapshotSlots() {
	for i, m := range hm.eng.sms {
		for slot := range m.warps {
			hm.prevSlots[i][slot] = slotTrack{warp: m.warps[slot], issued: m.metrics[slot].Issued}
		}
	}
}

// starvedSlots returns (sm, slot) pairs for warps that were resident and
// runnable across the whole window yet never issued: same warp occupied
// the slot at both samples, its issue count did not move, it is ready
// right now, and it is not deliberately held back by BOWS back-off.
func (hm *hangMonitor) starvedSlots() [][2]int {
	var out [][2]int
	for i, m := range hm.eng.sms {
		for slot, w := range m.warps {
			if w == nil || w.Done || w.AtBarrier {
				continue
			}
			prev := hm.prevSlots[i][slot]
			if prev.warp != w || m.metrics[slot].Issued != prev.issued {
				continue
			}
			if m.bows != nil && m.bows.BackedOff(slot) {
				continue
			}
			if !m.ready(slot) {
				continue
			}
			out = append(out, [2]int{i, slot})
		}
	}
	return out
}

// sample takes one progress sample and returns a confirmed hang class
// (HangUnknown when the machine looks healthy or the evidence has not
// repeated for two windows yet).
func (hm *hangMonitor) sample() HangClass {
	e := hm.eng
	// Settle dormant SMs' lazy per-cycle credits so the sample reads the
	// exact state a per-cycle run would have at this cycle.
	e.flushSMs()
	issued, useful, spin := e.progressSignals()
	hm.lastIssuedD = issued - hm.prevIssued
	hm.lastUsefulD = useful - hm.prevUseful
	hm.lastSpinD = spin - hm.prevSpin

	class := HangUnknown
	switch {
	case hm.lastIssuedD == 0:
		class = HangDeadlock
	case hm.lastUsefulD == 0 && len(hm.starvedSlots()) > 0:
		class = HangStarvation
	case hm.lastUsefulD == 0 && hm.lastSpinD > 0:
		class = HangLivelock
	}
	hm.lastClass = class

	confirmed := HangUnknown
	if class != HangUnknown && class == hm.pending {
		confirmed = class
	}
	hm.pending = class

	hm.prevIssued, hm.prevUseful, hm.prevSpin = issued, useful, spin
	hm.snapshotSlots()
	hm.next += DefaultHangWindow
	return confirmed
}

// buildHangReport assembles the full diagnosis. class may be HangUnknown
// (watchdog aborts where no hang signature was confirmed).
func (e *Engine) buildHangReport(hm *hangMonitor, class HangClass) *HangReport {
	r := &HangReport{
		Class:     class,
		Cycle:     e.cycle,
		Kernel:    e.launch.Prog.Name,
		GPU:       e.opt.GPU.Name,
		Sched:     e.opt.Sched,
		CTAsDone:  e.ctasDone,
		TotalCTAs: e.totalCTAs,
		Mem:       e.sys.InFlight(),
	}
	if hm != nil {
		r.Window = DefaultHangWindow
		r.IssuedInWindow = hm.lastIssuedD
		r.UsefulInWindow = hm.lastUsefulD
		r.SpinInWindow = hm.lastSpinD
	}

	// Parked lock acquires, keyed by (SM, slot): both a state marker and
	// the pending lock address.
	parked := make(map[[2]int]uint32)
	for _, w := range e.sys.ParkedWaiters() {
		key := [2]int{w.SM, w.WarpSlot}
		if _, ok := parked[key]; !ok {
			parked[key] = w.Addr
		}
	}

	for i, m := range e.sms {
		r.MSHRLines = append(r.MSHRLines, m.port.MSHRLines())
		if snap := m.det.TableSnapshot(); len(snap) > 0 {
			r.SIBPT = append(r.SIBPT, SMSIBPT{SM: i, Entries: snap})
		}
		for slot, w := range m.warps {
			if w == nil {
				continue
			}
			wh := WarpHang{
				SM:             i,
				Slot:           slot,
				PC:             w.PC(),
				AtBarrier:      w.AtBarrier,
				BackedOff:      m.bows != nil && m.bows.BackedOff(slot),
				Spinning:       m.det.Spinning(slot),
				OutstandingMem: m.port.Outstanding(slot),
			}
			if hm != nil {
				prev := hm.prevSlots[i][slot]
				if prev.warp == w {
					wh.IssuedInWindow = m.metrics[slot].Issued - prev.issued
				} else {
					wh.IssuedInWindow = m.metrics[slot].Issued
				}
			}
			if addr, ok := parked[[2]int{i, slot}]; ok {
				wh.PendingLock, wh.HasPendingLock = addr, true
			} else if !w.Done {
				if in := w.NextInstr(); in.Op == isa.OpAtomCAS && in.HasAnn(isa.AnnLockAcquire) {
					if mask := w.ActiveMask(); mask != 0 {
						lane := 0
						for mask&(1<<lane) == 0 {
							lane++
						}
						wh.PendingLock, wh.HasPendingLock = w.EvalAddr(in, lane), true
					}
				}
			}
			switch {
			case w.Done:
				wh.State = "done"
			case w.AtBarrier:
				wh.State = "barrier"
			case wh.HasPendingLock && parkedHas(parked, i, slot):
				wh.State = "parked-lock"
			case wh.BackedOff:
				wh.State = "backed-off"
			case m.ready(slot):
				wh.State = "ready"
			case wh.OutstandingMem > 0:
				wh.State = "mem-wait"
			default:
				wh.State = "scoreboard"
			}
			r.Warps = append(r.Warps, wh)
		}
	}
	sort.SliceStable(r.Warps, func(a, b int) bool {
		wa, wb := &r.Warps[a], &r.Warps[b]
		if (wa.State == "done") != (wb.State == "done") {
			return wb.State == "done" // finished warps last
		}
		if wa.IssuedInWindow != wb.IssuedInWindow {
			return wa.IssuedInWindow < wb.IssuedInWindow
		}
		if wa.SM != wb.SM {
			return wa.SM < wb.SM
		}
		return wa.Slot < wb.Slot
	})
	return r
}

func parkedHas(parked map[[2]int]uint32, sm, slot int) bool {
	_, ok := parked[[2]int{sm, slot}]
	return ok
}
