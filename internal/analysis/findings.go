// Package analysis implements offline static analysis over isa.Program:
// CFG construction, dominator / immediate-post-dominator computation with
// verification that every divergent branch's reconvergence PC equals the
// branch's IPDOM (the property GPGPU-Sim's PTX front end guarantees by
// construction and the SIMT stack in internal/simt relies on), register
// and predicate def-use dataflow lints, and synchronization-discipline
// checks for the busy-wait idioms of the paper's kernels (volatile spin
// loads, acquire/release pairing, barriers under divergent control flow).
//
// The analysis never executes anything: it is purely structural, so it can
// gate kernel registration and CI without touching simulated cycle counts.
package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Category identifies a class of finding. Categories are stable strings
// so they can be named in !nolint annotations and JSON output.
type Category string

const (
	// CatInvalid: isa.Program.Validate failed; deeper passes are skipped.
	CatInvalid Category = "invalid"
	// CatReconvMismatch: a guarded branch's Reconv PC differs from the
	// immediate post-dominator of the branch in the CFG.
	CatReconvMismatch Category = "reconv-mismatch"
	// CatNoExitPath: no path from a divergent branch to program exit, so
	// its post-dominator (and reconvergence point) is undefined.
	CatNoExitPath Category = "no-exit-path"
	// CatUnreachable: the instruction can never execute.
	CatUnreachable Category = "unreachable-code"
	// CatUninitReg: a general-purpose register is read somewhere but
	// written nowhere in the program.
	CatUninitReg Category = "uninit-reg-read"
	// CatUninitPred: a guard or selp source predicate may be used before
	// any setp defines it on some path from entry.
	CatUninitPred Category = "uninit-pred"
	// CatDeadWrite: a register or predicate write whose value can never
	// be observed (no read before every overwrite/exit). Memory ops are
	// exempt: loads and atomics have timing/memory side effects.
	CatDeadWrite Category = "dead-write"
	// CatUnpairedAcquire: an AnnLockAcquire from which no AnnLockRelease
	// is reachable — the lock could never be released.
	CatUnpairedAcquire Category = "unpaired-acquire"
	// CatUnpairedRelease: an AnnLockRelease no AnnLockAcquire can reach.
	CatUnpairedRelease Category = "unpaired-release"
	// CatSpinLoadNotVolatile: the value tested by a spin (a guarded
	// backward AnnSync branch) or wait-check branch is produced by a
	// non-volatile load; on the non-coherent L1 the spin would re-read a
	// stale line forever.
	CatSpinLoadNotVolatile Category = "spin-load-not-volatile"
	// CatDivergentBarrier: a CTA barrier under divergent control flow —
	// guarded by a thread-varying predicate, or inside the arm of a
	// forward branch whose guard is thread-varying.
	CatDivergentBarrier Category = "divergent-barrier"

	// The categories below are produced by the inter-warp race analyzer
	// (internal/analysis/race); they share this taxonomy so suppression
	// and JSON output treat every pass uniformly.

	// CatRace: two accesses in the same barrier interval may touch the
	// same word from different threads and at least one is a non-atomic
	// write. The finding is anchored at one access; OtherPC names the
	// second.
	CatRace Category = "race"
	// CatBarrierDeadlock: threads of one CTA can diverge to different
	// barrier sets — some warps arrive at a bar.sync other warps can
	// bypass while still running, so the barrier count may never close.
	CatBarrierDeadlock Category = "barrier-deadlock"
	// CatDoubleAcquire: a path re-acquires a lock address that is already
	// held (self-deadlock on a non-reentrant spin lock).
	CatDoubleAcquire Category = "double-acquire"
	// CatUnlockWithoutLock: a release on a path where the lock address is
	// not held.
	CatUnlockWithoutLock Category = "unlock-without-lock"
	// CatLockLeak: a program exit path on which an acquired lock is still
	// held (no release on the path).
	CatLockLeak Category = "lock-leak"
	// CatLockOrder: the static lock-order graph has a cycle — two paths
	// acquire the same pair of lock addresses in opposite orders while
	// blocking (AB/BA deadlock).
	CatLockOrder Category = "lockorder"
)

// Class groups categories for coarse suppression and the schema-2 JSON
// `class` field: "cfg" (structure/reconvergence), "dataflow" (def-use),
// "sync" (intra-warp sync discipline), "race" (inter-warp data races and
// barrier phasing) and "lock" (lockset and lock-order defects). A
// `!nolint <name>` annotation matches either the class or the exact
// category.
func (c Category) Class() string {
	switch c {
	case CatInvalid, CatReconvMismatch, CatNoExitPath, CatUnreachable:
		return "cfg"
	case CatUninitReg, CatUninitPred, CatDeadWrite:
		return "dataflow"
	case CatUnpairedAcquire, CatUnpairedRelease, CatSpinLoadNotVolatile, CatDivergentBarrier:
		return "sync"
	case CatRace, CatBarrierDeadlock:
		return "race"
	case CatDoubleAcquire, CatUnlockWithoutLock, CatLockLeak, CatLockOrder:
		return "lock"
	}
	return "other"
}

// Finding is one analysis diagnostic, anchored at a PC of the program.
type Finding struct {
	Program  string   `json:"program"`
	PC       int32    `json:"pc"`
	Category Category `json:"category"`
	// Class is the category's coarse group (Category.Class), emitted so
	// schema-2 consumers can bucket findings without the category table.
	Class   string `json:"class,omitempty"`
	Message string `json:"message"`
	// OtherPC names the second instruction of a pair finding (the other
	// access of a race). Pair findings are anchored at the lower PC with
	// OtherPC the strictly greater one, so a zero value (omitted in JSON)
	// always means "no second site" — self-pairs (one instruction racing
	// with itself across threads) carry the pairing in Message instead.
	OtherPC int32 `json:"other_pc,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Program, f.PC, f.Category, f.Message)
}

// Report is the result of analyzing one program. Suppressed holds
// findings whose instruction carries a matching isa.AnnNoLint.
type Report struct {
	Program    string    `json:"program"`
	Findings   []Finding `json:"findings"`
	Suppressed []Finding `json:"suppressed,omitempty"`
}

// Clean reports whether the program has no unsuppressed findings.
func (r *Report) Clean() bool { return len(r.Findings) == 0 }

// MarshalJSON emits the report with empty finding slices rendered as []
// rather than null, for stable machine-readable output.
func (r *Report) MarshalJSON() ([]byte, error) {
	type alias Report
	a := alias(*r)
	if a.Findings == nil {
		a.Findings = []Finding{}
	}
	return json.Marshal(a)
}

// sortFindings orders findings by PC then category for deterministic
// output.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].PC != fs[j].PC {
			return fs[i].PC < fs[j].PC
		}
		return fs[i].Category < fs[j].Category
	})
}
