package main

import (
	"fmt"
	"strings"

	"mptcpsim/internal/check"
	"mptcpsim/internal/energy"
	"mptcpsim/internal/faults"
	"mptcpsim/internal/flows"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/topo"
)

// churn: an open-loop flow population on a k=4 FatTree, as in the churn
// experiment, once under a Poisson regime the tree can drain and once
// under an MMPP storm held back by an admission cap, with a switch-link
// outage and a flap running underneath. The event heap is deep (thousands
// pending), RTO and arrival timers are plentiful, and every flow birth
// enumerates paths and allocates a flows slab slot. obsv is off.

// churnFlows is the population each regime offers.
const churnFlows = 4000

// churnRegime is one arrival regime and the algorithm its flows run.
type churnRegime struct {
	name, alg string
	// arrivals returns the arrival process and the admission cap (0 =
	// none) for a tree with the given host count.
	arrivals func(hosts int) (flows.Arrivals, int)
}

// churnOpenRate is the open regime's arrival rate per host, in flows/s.
const churnOpenRate = 40

var churnRegimes = []churnRegime{
	{"open", "lia", func(hosts int) (flows.Arrivals, int) {
		return flows.Poisson{Rate: float64(hosts) * churnOpenRate}, 0
	}},
	{"overload", "olia", func(hosts int) (flows.Arrivals, int) {
		return &flows.MMPP2{
			RateLow: float64(hosts) * 30, RateHigh: float64(hosts) * 300,
			MeanLow: 25 * sim.Millisecond, MeanHigh: 25 * sim.Millisecond,
		}, hosts * 16
	}},
}

// churnRun is one regime's assembled simulation.
type churnRun struct {
	reg     churnRegime
	eng     *sim.Engine
	mgr     *flows.Manager
	links   []*netem.Link
	inv     *check.Invariants
	horizon sim.Time
}

func newChurnRun(reg churnRegime, seed int64, tr *tracer, verify bool) *churnRun {
	eng := sim.NewEngine(seed)
	ft := buildTopo(tr, func() *topo.FatTree {
		ft, err := topo.NewFatTree(eng, topo.FatTreeConfig{K: 4})
		if err != nil {
			panic(err)
		}
		return ft
	})
	arrivals, capFlows := reg.arrivals(ft.Hosts())
	r := &churnRun{reg: reg, eng: eng, links: ft.Links()}
	if verify {
		r.inv = check.New(eng)
	}
	r.mgr = flows.MustNew(eng, wrapNet(ft, tr), flows.Config{
		Algorithm:     reg.alg,
		TotalFlows:    churnFlows,
		MaxConcurrent: capFlows,
		Arrivals:      arrivals,
		Model:         wrapModel(energy.NewI7(), tr),
		WebSizes:      flows.SizeDist{Alpha: 1.2, Min: 16 << 10, Max: 1 << 20},
		BulkSizes:     flows.SizeDist{Alpha: 1.3, Min: 256 << 10, Max: 4 << 20},
		Check:         r.inv,
	})

	// Faults run while flows arrive: one switch link dies and heals, the
	// next flaps, at fractions of the open regime's arrival phase.
	arrDur := sim.Time(float64(churnFlows) / (float64(ft.Hosts()) * churnOpenRate) * float64(sim.Second))
	sw := ft.SwitchLinks()
	faults.ApplyLinks(eng, sw[:1], faults.Outage{Down: arrDur / 4, Up: arrDur / 2})
	faults.ApplyLinks(eng, sw[1:2], faults.Flap{Start: arrDur / 6, Period: arrDur / 3, DownFor: arrDur / 12})
	r.mgr.OnDrained = eng.Stop
	r.horizon = 4*arrDur + 60*sim.Second
	tr.sample(eng, r.links)
	return r
}

func (r *churnRun) simulate() error {
	if r.inv != nil {
		r.inv.Start()
	}
	r.mgr.Start()
	r.eng.Run(r.horizon)
	r.mgr.CutLive()
	st := r.mgr.Stats()
	if st.Offered != st.Completed+st.ShedCapacity+st.Cut {
		return fmt.Errorf("%s: offered %d != completed %d + shed %d + cut %d",
			r.reg.name, st.Offered, st.Completed, st.ShedCapacity, st.Cut)
	}
	if r.inv != nil {
		r.inv.Final()
		if err := r.inv.Err(); err != nil {
			return fmt.Errorf("%s: %w", r.reg.name, err)
		}
	}
	return nil
}

func setupChurn(seed int64, tr *tracer, verify bool) func(*clock) outcome {
	runs := make([]*churnRun, len(churnRegimes))
	for i, reg := range churnRegimes {
		runs[i] = newChurnRun(reg, seed+int64(i), tr, verify)
	}
	return func(clk *clock) outcome { return runChurn(runs, clk) }
}

func runChurn(runs []*churnRun, clk *clock) outcome {
	var o outcome
	for _, r := range runs {
		clk.part(func() {
			if err := r.simulate(); err != nil && o.err == nil {
				o.err = err
			}
		})
	}

	var digest strings.Builder
	c := layerCounts{}
	var offered, shed, ackedBytes float64
	for _, r := range runs {
		st := r.mgr.Stats()
		fcts, joules := r.mgr.FCTs(), r.mgr.Joules()
		fmt.Fprintf(&digest, "%s %s offered=%d completed=%d shed=%d cut=%d acked_bytes=%d"+
			" fct_s p50=%.9g p95=%.9g p99=%.9g joules p50=%.9g p95=%.9g p99=%.9g\n",
			r.reg.name, r.reg.alg, st.Offered, st.Completed, st.ShedCapacity, st.Cut, st.AckedBytes,
			stats.Percentile(fcts, 50), stats.Percentile(fcts, 95), stats.Percentile(fcts, 99),
			stats.Percentile(joules, 50), stats.Percentile(joules, 95), stats.Percentile(joules, 99))
		offered += float64(st.Offered)
		shed += float64(st.ShedCapacity)
		ackedBytes += float64(st.AckedBytes)
		c["sim.events"] += float64(r.eng.Processed())
		c.addLinks(r.links)
		c["flows.offered"] += float64(st.Offered)
		c["flows.cut"] += float64(st.Cut)
		c["flows.peak_live"] = max(c["flows.peak_live"], float64(st.PeakLive))
		c["flows.slots"] = max(c["flows.slots"], float64(r.mgr.SlotsAllocated()))
	}
	c["flows.shed_frac"] = ratio(shed, offered)
	o.digest = digest.String()
	o.counts = c
	// Every offered flow settles as completed, shed or cut.
	o.flows = offered
	o.pkts = ackedBytes / mss
	o.points = float64(len(churnRegimes))
	return o
}
