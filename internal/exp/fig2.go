package exp

import (
	"strings"

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
	gpu := c.fermi()
	r := &Fig2Result{Events: map[string][]stats.SyncEvents{}}
	suite := c.syncSuite()
	var specs []Spec
	for _, k := range suite {
		for _, kind := range config.Schedulers {
			specs = append(specs, Spec{GPU: gpu, Sched: kind, BOWS: bowsOff(), DDOS: config.DefaultDDOS(), Kernel: k})
		}
	}
	runs, err := c.runs(specs, false)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, k := range suite {
		r.Kernels = append(r.Kernels, k.Name)
		var evs []stats.SyncEvents
		for _, kind := range config.Schedulers {
			ev := runs[i].Stats.Sync
			i++
			evs = append(evs, ev)
			c.note("fig2 %s %s: attempts=%d", k.Name, kind, ev.LockAttempts()+ev.WaitAttempts())
		}
		r.Events[k.Name] = evs
	}
	return r, nil
}

// String renders the Figure 2 table in the harness's text format.
func (r *Fig2Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 2 — synchronization status distribution (bars: LRR, GTO, CAWA; totals normalized to LRR)\n\n")
	var scheds []string
	for _, kind := range config.Schedulers {
		scheds = append(scheds, string(kind))
	}
	sb.WriteString(syncTable([]string{"kernel", "sched", "lock-success", "inter-warp fail", "intra-warp fail",
		"wait-exit ok", "wait-exit fail", "total/LRR"}, r.Kernels, scheds, r.Events))
	sb.WriteString("paper: most lock failures are inter-warp, and the failure volume depends strongly on the scheduler\n")
	return sb.String()
}
