package exp

import (
	"fmt"

	"warpsched/internal/config"
)

// Fig14Section is the derived Figure 14 content: overhead of DDOS
// detection errors on synchronization-free kernels under BOWS at a large
// fixed delay (5000 cycles). With XOR hashing there are no false
// detections, so BOWS must match the baseline; with MODULO hashing the
// MS/HL loop shapes are misclassified and get throttled.
type Fig14Section struct {
	// Kernels lists the sync-free benchmarks in the caller's order.
	Kernels []string
	// XOR and MOD are execution time normalized to GTO under XOR and
	// MODULO hashing; FalseXOR/FalseMOD count falsely confirmed SIBs.
	XOR, MOD           map[string]Bar
	FalseXOR, FalseMOD map[string]int64
	// GmeanXOR and GmeanMOD are geometric means over Kernels.
	GmeanXOR, GmeanMOD float64
}

// Fig14Layout returns the detection-error study's three runs per kernel:
// baseline GTO, then GTO+BOWS(5000) under XOR and under MODULO hashing.
func Fig14Layout() []Column {
	modulo := config.DefaultDDOS()
	modulo.Hash = config.HashModulo
	return []Column{
		{"GTO", Spec{Sched: config.GTO, BOWS: bowsOff(), DDOS: config.DefaultDDOS()}},
		{"XOR", Spec{Sched: config.GTO, BOWS: config.FixedBOWS(5000), DDOS: config.DefaultDDOS()}},
		{"MODULO", Spec{Sched: config.GTO, BOWS: config.FixedBOWS(5000), DDOS: modulo}},
	}
}

// Fig14 runs the detection-error overhead study.
func Fig14(c Cfg) (*Fig14Section, error) {
	cols := Fig14Layout()
	kernels, runs, err := c.sweep(c.fermi(), c.syncFreeSuite(), cols, false)
	if err != nil {
		return nil, err
	}
	return DeriveFig14(kernels, cols, runs), nil
}

// DeriveFig14 derives the detection-error section from a Fig14Layout run
// matrix.
func DeriveFig14(kernels []string, cols []Column, runs [][]Run) *Fig14Section {
	times, gmeans := normalize(kernels, len(cols), runs, cycles)
	sec := &Fig14Section{
		Kernels: kernels, GmeanXOR: gmeans[1], GmeanMOD: gmeans[2],
		XOR: map[string]Bar{}, MOD: map[string]Bar{},
		FalseXOR: map[string]int64{}, FalseMOD: map[string]int64{},
	}
	for ki, k := range kernels {
		base, xor, mod := times[k][0], times[k][1], times[k][2]
		xor.LowerBound = xor.LowerBound || base.LowerBound
		mod.LowerBound = mod.LowerBound || base.LowerBound
		sec.XOR[k], sec.MOD[k] = xor, mod
		sec.FalseXOR[k] = runs[ki][1].Detection.FalseDetected
		sec.FalseMOD[k] = runs[ki][2].Detection.FalseDetected
	}
	return sec
}

// Tables lays out the Figure 14 table.
func (s *Fig14Section) Tables() []Table {
	t := Table{
		Title:   "Fig. 14 — execution time of sync-free kernels under GTO+BOWS(5000), normalized to GTO",
		Header:  []string{"kernel", "XOR time", "XOR falseDet", "MODULO time", "MODULO falseDet"},
		Summary: []string{"gmean", f2(s.GmeanXOR), "", f2(s.GmeanMOD), ""},
		Note: []string{
			"falseDet counts falsely confirmed SIBs. paper: XOR — identical to baseline (no false detections,",
			"reproduced exactly); MODULO — only MS and HL slow down (2.1% avg over Rodinia). Our suite false-detects",
			"more kernels under MODULO because its grid-stride loops all advance by power-of-two strides — the exact",
			"mechanism the paper diagnoses for MS/HL (increments invisible to low-order-bit hashing)",
		},
		Figure: "fig14.svg",
	}
	for _, k := range s.Kernels {
		t.add(k, s.XOR[k].String(), fmt.Sprintf("%d", s.FalseXOR[k]),
			s.MOD[k].String(), fmt.Sprintf("%d", s.FalseMOD[k]))
	}
	return []Table{t}
}

// String renders the section's table in the harness's text format.
func (s *Fig14Section) String() string { return text(s.Tables()) }
