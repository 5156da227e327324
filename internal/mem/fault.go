package mem

import (
	"fmt"

	"warpsched/internal/isa"
)

// AddrFault describes a functional access outside the memory image. The
// memory system panics with an *AddrFault instead of a bare string so the
// engine can recover it into a structured, context-carrying error that
// propagates to the run record (instead of killing the whole process, or
// in a parallel sweep, every run sharing it).
type AddrFault struct {
	// Addr is the offending word address; Size the memory image capacity.
	Addr uint32
	Size int
	// The remaining fields locate the access when the fault occurred while
	// servicing a warp transaction (HasCtx); functional Read/Write faults
	// from outside the timed pipeline carry no context.
	HasCtx   bool
	SM       int
	WarpSlot int
	Op       isa.Op
}

// Error names the address and the image size and, when the fault happened
// inside a transaction, the operation and warp being serviced.
func (f *AddrFault) Error() string {
	if f.HasCtx {
		return fmt.Sprintf("mem: address %d out of range (size %d words) servicing %v from sm%d/w%d",
			f.Addr, f.Size, f.Op, f.SM, f.WarpSlot)
	}
	return fmt.Sprintf("mem: address %d out of range (size %d words)", f.Addr, f.Size)
}
