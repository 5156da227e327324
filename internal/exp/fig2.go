package exp

import (
	"warpsched/internal/config"
	"warpsched/internal/stats"
)

// Fig2Result reproduces Figure 2: the distribution of lock-acquire and
// wait-exit outcomes per kernel under LRR, GTO and CAWA (no BOWS), with
// each scheduler's total attempts normalized to LRR's.
type Fig2Result struct {
	Kernels []string
	// Events[kernel][schedIdx] in config.Schedulers order.
	Events map[string][]stats.SyncEvents
}

// Fig2 runs the distribution study.
func Fig2(c Cfg) (*Fig2Result, error) {
	var cols []Column
	for _, kind := range config.Schedulers {
		cols = append(cols, Column{string(kind), Spec{Sched: kind, BOWS: bowsOff(), DDOS: config.DefaultDDOS()}})
	}
	kernels, runs, err := c.sweep(c.fermi(), c.syncSuite(), cols, false)
	if err != nil {
		return nil, err
	}
	r := &Fig2Result{Kernels: kernels, Events: map[string][]stats.SyncEvents{}}
	for ki, k := range kernels {
		for ci, run := range runs[ki] {
			ev := run.Stats.Sync
			r.Events[k] = append(r.Events[k], ev)
			c.note("fig2 %s %s: attempts=%d", k, cols[ci].Label, ev.LockAttempts()+ev.WaitAttempts())
		}
	}
	return r, nil
}

// String renders the Figure 2 table in the harness's text format.
func (r *Fig2Result) String() string {
	var scheds []string
	for _, kind := range config.Schedulers {
		scheds = append(scheds, string(kind))
	}
	t := syncTable("Fig. 2 — synchronization status distribution (bars: LRR, GTO, CAWA; totals normalized to LRR)",
		[]string{"kernel", "sched", "lock-success", "inter-warp fail", "intra-warp fail",
			"wait-exit ok", "wait-exit fail", "total/LRR"}, r.Kernels, scheds, r.Events)
	t.Note = []string{"paper: most lock failures are inter-warp, and the failure volume depends strongly on the scheduler"}
	return t.String()
}
