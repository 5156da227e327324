package simt

// RegRows reports how many register rows w's file holds, for the external
// tests that size it against a kernel's program.
func RegRows(w *Warp) int { return len(w.regs) }
