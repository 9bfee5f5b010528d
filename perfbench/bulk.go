package main

import (
	"fmt"
	"strings"

	"mptcpsim/internal/check"
	"mptcpsim/internal/energy"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/workload"
)

// bulk: a few long-lived MPTCP connections, one per algorithm family,
// sharing the two-path testbed and the WiFi+LTE topology while Pareto
// on/off cross traffic comes and goes on one path. The per-packet path
// (netem → tcp → mptcp → core) dominates and the event heap stays
// shallow; every connection is metered and recorded, so this is the only
// workload with steady obsv and meter-tick work.

// bulkAlgorithms rotate across each scenario's connections: the coupled
// baselines and the paper's two DTS designs.
var bulkAlgorithms = []string{"lia", "olia", "balia", "dts", "dtsep"}

// bulkScenario is one topology with its cross traffic and power model.
type bulkScenario struct {
	name    string
	horizon sim.Time
	build   func(eng *sim.Engine) bulkTopo
}

type bulkTopo struct {
	paths  []*netem.Path
	cross  []*netem.Link // cross traffic route
	pareto workload.ParetoConfig
	model  energy.Model
}

var bulkScenarios = []bulkScenario{
	{
		name:    "twopath",
		horizon: 12 * sim.Second,
		build: func(eng *sim.Engine) bulkTopo {
			tp := topo.NewTwoPath(eng, topo.TwoPathConfig{Delay: sim.Millisecond, QueueLimit: 50})
			return bulkTopo{tp.Paths(), []*netem.Link{tp.CrossEntry(1)},
				workload.ParetoConfig{RateBps: 45 * netem.Mbps, MeanOff: sim.Second, MeanOn: sim.Second / 2},
				energy.NewI7()}
		},
	},
	{
		name:    "hetwireless",
		horizon: 80 * sim.Second,
		build: func(eng *sim.Engine) bulkTopo {
			het := topo.NewHetWireless(eng, topo.HetWirelessConfig{WiFiLoss: 0.002})
			return bulkTopo{het.Paths(), []*netem.Link{het.CrossEntry(1)},
				workload.ParetoConfig{RateBps: 8 * netem.Mbps, MeanOff: 4 * sim.Second, MeanOn: 2 * sim.Second},
				energy.NewNexus()}
		},
	},
}

// bulkRun is one scenario's assembled simulation.
type bulkRun struct {
	sc     bulkScenario
	eng    *sim.Engine
	conns  []*mptcp.Conn
	meters []*energy.Meter
	rec    *obsv.Recorder
	sink   *jsonlSink
	links  []*netem.Link
	inv    *check.Invariants
}

func newBulkRun(sc bulkScenario, seed int64, tr *tracer, verify bool) *bulkRun {
	eng := sim.NewEngine(seed)
	b := buildTopo(tr, func() bulkTopo { return sc.build(eng) })
	r := &bulkRun{sc: sc, eng: eng, links: pathLinks(b.paths), sink: newJSONLSink(tr)}
	workload.NewParetoOnOff(eng, b.cross, b.pareto).Start()

	r.rec = obsv.NewRecorder(eng, obsv.Meta{Experiment: "perfbench", Scenario: sc.name, Algorithm: "mixed", Seed: seed},
		obsv.Options{Stream: r.sink})
	r.rec.AddSampler("perfbench.mark", r.sink.mark)
	model := wrapModel(b.model, tr)
	for i, alg := range bulkAlgorithms {
		conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: alg}, uint64(i+1), b.paths...)
		conn.SetAlgorithm(decorate(conn.Alg(), tr))
		m := energy.NewMeter(eng, model, wrapProbe(energy.ConnProbe(conn), tr), 0)
		r.rec.WatchConn(alg+".", conn)
		r.rec.WatchMeter(alg+".meter", m)
		r.conns = append(r.conns, conn)
		r.meters = append(r.meters, m)
	}
	if verify {
		r.inv = check.New(eng)
		for i, c := range r.conns {
			r.inv.Watch(bulkAlgorithms[i], c)
			r.inv.WatchMeter(bulkAlgorithms[i], r.meters[i])
		}
		r.inv.Start()
	}
	tr.sample(eng, r.links)
	return r
}

// simulate runs the scenario to its horizon and closes meters and record.
func (r *bulkRun) simulate() error {
	r.rec.Start()
	for i, c := range r.conns {
		r.meters[i].Start()
		c.Start()
	}
	r.eng.Run(r.sc.horizon)
	for _, m := range r.meters {
		m.Stop()
	}
	if err := r.rec.Close(); err != nil {
		return fmt.Errorf("%s: obsv stream: %w", r.sc.name, err)
	}
	if r.inv != nil {
		r.inv.Final()
		if err := r.inv.Err(); err != nil {
			return fmt.Errorf("%s: %w", r.sc.name, err)
		}
	}
	return nil
}

func setupBulk(seed int64, tr *tracer, verify bool) func(*clock) outcome {
	runs := make([]*bulkRun, len(bulkScenarios))
	for i, sc := range bulkScenarios {
		runs[i] = newBulkRun(sc, seed+int64(i), tr, verify)
	}
	return func(clk *clock) outcome { return runBulk(runs, clk) }
}

func runBulk(runs []*bulkRun, clk *clock) outcome {
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
	var acked, wire, rtx, sent int64
	for _, r := range runs {
		for i, conn := range r.conns {
			fmt.Fprintf(&digest, "%s %-6s goodput_bps=%.9g joules=%.9g acked_segs=%d\n",
				r.sc.name, bulkAlgorithms[i], conn.MeanThroughputBps(), r.meters[i].Joules(), conn.AckedSegs())
			acked += conn.AckedSegs()
			c["mptcp.reinjected"] += float64(conn.ReinjectedSegs())
			for _, s := range conn.Subflows() {
				st := s.Stats()
				sent += int64(st.PktsSent)
				rtx += int64(st.PktsRtx)
				wire += int64(st.PktsSent + st.PktsRtx + st.Probes)
				c["tcp.timeouts"] += float64(st.Timeouts)
				c["tcp.loss_events"] += float64(st.LossEvents)
			}
		}
		fmt.Fprintf(&digest, "%s obsv lines=%d bytes=%d fnv=%016x\n", r.sc.name, r.sink.lines, r.sink.bytes, r.sink.sum.Sum64())
		c["sim.events"] += float64(r.eng.Processed())
		c.addLinks(r.links)
		c["obsv.lines"] += float64(r.sink.lines)
		c["obsv.bytes"] += float64(r.sink.bytes)
	}
	c["tcp.rtx_frac"] = ratio(float64(rtx), float64(sent+rtx))
	c["mptcp.useful_frac"] = ratio(float64(acked), float64(wire))
	o.digest = digest.String()
	o.counts = c
	o.pkts = float64(acked)
	o.flows = float64(len(bulkScenarios) * len(bulkAlgorithms))
	o.points = float64(len(bulkScenarios))
	return o
}

// pathLinks returns the distinct links of paths, forward then reverse, in
// path order.
func pathLinks(paths []*netem.Path) []*netem.Link {
	seen := make(map[*netem.Link]bool)
	var out []*netem.Link
	for _, p := range paths {
		for _, dir := range [][]*netem.Link{p.Forward, p.Reverse} {
			for _, l := range dir {
				if !seen[l] {
					seen[l] = true
					out = append(out, l)
				}
			}
		}
	}
	return out
}
