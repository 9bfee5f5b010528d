// Command perfbench is the simulator's benchmark. It runs one workload
// (bulk, churn or sweep) repeatedly for a fixed host-time budget, checks
// every repeat's simulated results against the first, and prints every
// metric by name with its unit; the last line of standard output is one
// JSON object. With -trace 0 it reports the end-to-end metrics, with
// -trace 1 the per-layer ones. Times are scaled to a reference host speed
// that a yardstick measures between the parts of each repeat
// (yardstick.go). README.md explains the workloads, the metrics and which
// layer each metric should move.
//
//	go build -o perfbench . && ./perfbench -workload churn -seed 1 -seconds 10 -trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"mptcpsim/internal/netem"
)

// defaultSeed is used when -seed is not given. heldOutSeed is kept for
// checking a performance claim on a seed that was not used while the
// change was developed: do not tune against it.
const (
	defaultSeed = 1
	heldOutSeed = 20261017
)

const (
	mss     = 1448 // transport segment size, bytes
	wirePkt = 1500 // fluid model packet size, bytes
)

// outcome is what one repeat of a workload produced.
type outcome struct {
	digest string // rendered simulated results; repeats must match byte for byte
	// Set-up and simulation time, scaled by the repeat's clock, and the
	// simulation's host time.
	setup, run, rawRun time.Duration
	// Work done, for the throughput metrics: connection-level segments
	// acked, flows settled, scenario points finished.
	pkts, flows, points float64
	counts              layerCounts // deterministic per-layer counts
	err                 error       // accounting or invariant violation
	residentMiB         float64     // set when the session measures memory
}

// setupFunc builds one repeat of a workload and returns the function that
// simulates it, timing each part of the work with clk.part. tr is nil
// unless the repeat is traced; verify adds the invariant checker.
type setupFunc func(seed int64, tr *tracer, verify bool) (simulate func(clk *clock) outcome)

var workloads = map[string]setupFunc{
	"bulk":  setupBulk,
	"churn": setupChurn,
	"sweep": setupSweep,
}

// setupSamples is how many extra set-ups each run times, besides the one
// per repeat, so that setup_s is a median over many samples.
const setupSamples = 40

// layerCounts holds per-layer counts read from public accessors.
type layerCounts map[string]float64

func (c layerCounts) addLinks(links []*netem.Link) {
	for _, l := range links {
		c["netem.delivered"] += float64(l.Delivered())
		c["netem.drops"] += float64(l.Dropped())
		c["netem.drops_loss"] += float64(l.RandDropped())
		c["netem.drops_outage"] += float64(l.OutageDropped())
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type metric struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. BENCHMARK.json lists the same names and units.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"pkts_per_s", "1/s"},
	{"flows_per_s", "1/s"},
	{"points_per_s", "1/s"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics, named after internal/ packages.
var perLayer = []metric{
	{"sim.events", "count"},
	{"sim.events_per_pkt", "events/pkt"},
	{"sim.events_per_s", "1/s"},
	{"sim.pending_peak", "count"},
	{"sim.self_frac", "ratio"},
	{"netem.delivered", "count"},
	{"netem.drops", "count"},
	{"netem.drops_loss", "count"},
	{"netem.drops_outage", "count"},
	{"netem.queue_peak", "pkts"},
	{"netem.self_frac", "ratio"},
	{"topo.build_s", "s"},
	{"topo.paths_calls", "count"},
	{"topo.paths_us", "us"},
	{"topo.self_frac", "ratio"},
	{"tcp.rtx_frac", "ratio"},
	{"tcp.timeouts", "count"},
	{"tcp.loss_events", "count"},
	{"tcp.self_frac", "ratio"},
	{"mptcp.useful_frac", "ratio"},
	{"mptcp.reinjected", "count"},
	{"mptcp.self_frac", "ratio"},
	{"core.increase_calls", "count"},
	{"core.increase_ns", "ns"},
	{"core.self_frac", "ratio"},
	{"energy.ticks", "count"},
	{"energy.tick_ns", "ns"},
	{"energy.model_calls", "count"},
	{"energy.model_ns", "ns"},
	{"energy.self_frac", "ratio"},
	{"obsv.lines", "count"},
	{"obsv.bytes", "bytes"},
	{"obsv.write_ns", "ns"},
	{"obsv.self_frac", "ratio"},
	{"flows.offered", "count"},
	{"flows.shed_frac", "ratio"},
	{"flows.cut", "count"},
	{"flows.peak_live", "count"},
	{"flows.slots", "count"},
	{"flows.self_frac", "ratio"},
	{"fluid.point_us", "us"},
	{"fluid.converged_frac", "ratio"},
	{"fluid.self_frac", "ratio"},
	{"backend.self_frac", "ratio"},
	{"go.allocs", "count"},
	{"go.allocs_per_event", "allocs/event"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_frac", "ratio"},
	{"go.self_frac", "ratio"},
	{"other.self_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"host.slowdown", "ratio"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: bulk, churn or sweep")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (%d is held out for checking claims)", heldOutSeed))
	seconds := fs.Float64("seconds", 10, "host seconds to measure")
	traced := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced run and reports per-layer metrics")
	probe := fs.Bool("probe", false, "print the median time of five yardstick measurements in ns (run.sh picks a CPU with it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload bulk|churn|sweep, -seconds > 0 and -trace 0|1\n")
		return 2
	}
	// One engine at a time on one processor, garbage collector included:
	// the figures then do not depend on how busy a second CPU is.
	runtime.GOMAXPROCS(1)

	s := &session{setup: fn, seed: *seed, clk: &clock{yard: newYardstick()}, out: stdout, log: stderr}
	if *probe {
		var ns []float64
		for range 5 {
			ns = append(ns, float64(s.clk.yard.measure().Nanoseconds()))
		}
		fmt.Fprintln(stdout, int64(median(ns)))
		return 0
	}
	budget := time.Duration(*seconds * float64(time.Second))
	list, values := endToEnd, map[string]float64(nil)
	if *traced == 1 {
		list, values = perLayer, s.traced(budget)
	} else {
		values = s.untraced(budget)
	}

	res := result{
		Correct:   s.failed == 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   make(map[string]value, len(list)),
	}
	for _, m := range list {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = value{v, m.unit}
		fmt.Fprintf(stdout, "%-22s %16.6g %s\n", m.name, v, m.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// session runs the repeats of one workload and checks each against the
// first that succeeded.
type session struct {
	setup     setupFunc
	seed      int64
	memory    bool   // read residentMiB after each repeat
	clk       *clock // times the parts of each repeat
	ref       *outcome
	attempted int
	failed    int
	out, log  io.Writer
}

// attempt runs one repeat and reports whether it counts: it must not
// panic or fail its checks, and its digest (and, outside the verification
// pass, its counts) must equal the first repeat's.
func (s *session) attempt(tr *tracer, verify bool) (outcome, bool) {
	o := s.call(tr, verify)
	s.attempted++
	if o.err == nil && tr != nil && tr.samplerTicks > 0 {
		o.counts["sim.events"] -= float64(tr.samplerTicks)
	}
	switch {
	case o.err != nil:
	case s.ref == nil:
		s.ref = &o
		fmt.Fprint(s.out, o.digest)
		fmt.Fprintf(s.out, "digest sha256 %x\n", sha256.Sum256([]byte(o.digest)))
	case o.digest != s.ref.digest:
		o.err = errors.New("result digest differs from the first repeat")
	case !verify && !maps.Equal(o.counts, s.ref.counts):
		o.err = fmt.Errorf("per-layer counts %v differ from the first repeat's %v", o.counts, s.ref.counts)
	}
	if o.err != nil {
		s.failed++
		fmt.Fprintf(s.log, "perfbench: repeat %d failed: %v\n", s.attempted, o.err)
		return o, false
	}
	return o, true
}

func (s *session) call(tr *tracer, verify bool) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o = outcome{err: fmt.Errorf("panic: %v", r)}
		}
	}()
	s.clk.reset()
	t0 := time.Now()
	simulate := s.setup(s.seed, tr, verify)
	setup := time.Since(t0)
	o = simulate(s.clk)
	o.rawRun, o.run = s.clk.raw, s.clk.scaled
	o.setup = time.Duration(float64(setup) * s.clk.factor())
	if s.memory {
		o.residentMiB = residentMiB()
		runtime.KeepAlive(simulate) // the repeat's state counts as resident
	}
	return o
}

// slowdown is the median yardstick time around the parts clk timed,
// over yardstickRef.
func slowdown(clk *clock) float64 {
	return median(clk.yardTimes) / yardstickRef.Seconds()
}

// setupTimes times set-ups that are built and dropped without running,
// as one part of the clock, and returns them scaled.
func (s *session) setupTimes(n int) []float64 {
	out := make([]float64, 0, n)
	s.clk.reset()
	s.clk.part(func() {
		for range n {
			t0 := time.Now()
			s.setup(s.seed, nil, false)
			out = append(out, time.Since(t0).Seconds())
		}
	})
	for i := range out {
		out[i] *= s.clk.factor()
	}
	return out
}

// untraced is the end-to-end run: one warm-up repeat (the reference
// digest), setupSamples bare set-ups, repeats until the budget is spent,
// then one verification pass with the invariant checker. Every time is
// scaled to the reference host, and every timing is a median over the
// repeats (and, for setup_s, the bare set-ups); max_rss_mb is the largest
// resident reading after a repeat.
func (s *session) untraced(budget time.Duration) map[string]float64 {
	s.attempt(nil, false)
	var setup, raw []float64
	if s.ref != nil { // a set-up that failed the warm-up would panic here
		setup = s.setupTimes(setupSamples)
	}
	var wall, pkts, flows, points []float64
	var rss float64
	start := time.Now()
	s.memory = true
	for n := 0; n < 3 || time.Since(start) < budget; n++ {
		o, ok := s.attempt(nil, false)
		if !ok {
			continue
		}
		rss = max(rss, o.residentMiB)
		raw = append(raw, o.rawRun.Seconds())
		sec := o.run.Seconds()
		setup = append(setup, o.setup.Seconds())
		wall = append(wall, sec)
		pkts = append(pkts, o.pkts/sec)
		flows = append(flows, o.flows/sec)
		points = append(points, o.points/sec)
	}
	s.memory = false
	s.attempt(nil, true)
	fmt.Fprintf(s.out, "host slowdown %.3f (median yardstick %.2f ms, reference %v); unscaled median wall_s %.6g\n",
		slowdown(s.clk), 1e3*median(s.clk.yardTimes), yardstickRef, median(raw))
	return map[string]float64{
		"setup_s":      median(setup),
		"wall_s":       median(wall),
		"pkts_per_s":   median(pkts),
		"flows_per_s":  median(flows),
		"points_per_s": median(points),
		"max_rss_mb":   rss,
	}
}

// traced is the per-layer run: a warm-up repeat, untraced repeats for a
// third of the budget (counts, allocation and wall-time baseline), traced
// repeats under the CPU profiler for the rest, then the verification pass.
// The yardstick runs around whole repeats, outside the allocation and GC
// readings, and scales the wall times.
func (s *session) traced(budget time.Duration) map[string]float64 {
	outer := s.clk
	s.clk = &clock{}
	bracket := func(f func()) float64 {
		outer.reset()
		outer.part(f)
		return outer.factor()
	}
	s.attempt(nil, false)
	start := time.Now()
	var walls, allocs, allocBytes, gcs []float64
	var before, after runtime.MemStats
	var gc gcCPU // the repeats' own, without the yardstick's
	for n := 0; n < 2 || time.Since(start) < budget/3; n++ {
		var o outcome
		var ok bool
		scale := bracket(func() {
			gc0 := readGCCPU()
			runtime.ReadMemStats(&before)
			o, ok = s.attempt(nil, false)
			runtime.ReadMemStats(&after)
			gc1 := readGCCPU()
			gc.gc += gc1.gc - gc0.gc
			gc.total += gc1.total - gc0.total
		})
		if ok {
			walls = append(walls, o.run.Seconds()*scale)
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
			allocBytes = append(allocBytes, float64(after.TotalAlloc-before.TotalAlloc))
			gcs = append(gcs, float64(after.NumGC-before.NumGC))
		}
	}

	var prof bytes.Buffer
	profErr := pprof.StartCPUProfile(&prof)
	var twalls []float64
	var trs []*tracer
	for n := 0; n < 2 || time.Since(start) < budget; n++ {
		tr := &tracer{}
		var o outcome
		var ok bool
		scale := bracket(func() { o, ok = s.attempt(tr, false) })
		if ok {
			twalls = append(twalls, o.run.Seconds()*scale)
			trs = append(trs, tr)
		}
	}
	if profErr == nil {
		pprof.StopCPUProfile()
	}
	s.attempt(nil, true)

	m := map[string]float64{}
	if s.ref == nil {
		return m
	}
	for k, v := range s.ref.counts {
		m[k] = v
	}
	events, wall := m["sim.events"], median(walls)
	m["sim.events_per_pkt"] = ratio(events, s.ref.pkts)
	m["sim.events_per_s"] = ratio(events, wall)
	m["go.allocs"] = median(allocs)
	m["go.allocs_per_event"] = ratio(median(allocs), events)
	m["go.alloc_mb"] = median(allocBytes) / 1e6
	m["go.gc_cycles"] = median(gcs)
	m["go.gc_frac"] = ratio(gc.gc, gc.total)
	m["trace.overhead_frac"] = ratio(median(twalls), wall) - 1
	m["host.slowdown"] = slowdown(outer)

	if len(trs) > 0 {
		// Seam counts are deterministic: take the first traced repeat's.
		first := trs[0]
		m["sim.pending_peak"] = float64(first.pendingPeak)
		m["netem.queue_peak"] = float64(first.queuePeak)
		m["topo.paths_calls"] = float64(first.pathsCalls)
		m["core.increase_calls"] = float64(first.incCalls)
		m["energy.ticks"] = float64(first.probeCalls)
		m["energy.model_calls"] = float64(first.modelCalls)
		// Seam times are means per call over every traced repeat.
		var sum tracer
		for _, tr := range trs {
			sum.topoNs += tr.topoNs
			sum.topoBuilds += tr.topoBuilds
			sum.pathsNs += tr.pathsNs
			sum.pathsCalls += tr.pathsCalls
			sum.incNs += tr.incNs
			sum.incCalls += tr.incCalls
			sum.probeNs += tr.probeNs
			sum.probeCalls += tr.probeCalls
			sum.modelNs += tr.modelNs
			sum.modelCalls += tr.modelCalls
			sum.lineNs += tr.lineNs
			sum.lines += tr.lines
			sum.pointNs += tr.pointNs
			sum.points += tr.points
		}
		per := func(ns, calls int64) float64 { return ratio(float64(ns), float64(calls)) }
		m["topo.build_s"] = per(sum.topoNs, sum.topoBuilds) / 1e9
		m["topo.paths_us"] = per(sum.pathsNs, sum.pathsCalls) / 1e3
		m["core.increase_ns"] = per(sum.incNs, sum.incCalls)
		m["energy.tick_ns"] = per(sum.probeNs, sum.probeCalls)
		m["energy.model_ns"] = per(sum.modelNs, sum.modelCalls)
		m["obsv.write_ns"] = per(sum.lineNs, sum.lines)
		m["fluid.point_us"] = per(sum.pointNs, sum.points) / 1e3
	}

	if profErr != nil {
		fmt.Fprintf(s.log, "perfbench: cpu profile: %v\n", profErr)
		return m
	}
	shares, err := layerShares(prof.Bytes())
	if err != nil {
		fmt.Fprintf(s.log, "perfbench: %v\n", err)
		return m
	}
	for layer, share := range shares {
		m[layer+".self_frac"] = share
	}
	return m
}

type gcCPU struct{ gc, total float64 }

// readGCCPU reads the runtime's cumulative GC and total CPU estimates.
func readGCCPU() gcCPU {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	var v gcCPU
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		v.gc = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		v.total = samples[1].Value.Float64()
	}
	return v
}

// residentMiB collects garbage, returns free memory to the OS and reads
// the process's resident set from /proc/self/statm (0 where there is
// none). With the repeat's state still referenced, that is the memory the
// simulation itself holds. The kernel's high-water mark is not used: on the
// sweep, whose repeats make 535 MB of short-lived garbage, it follows the
// collector's occasional overshoots and varied from 9 to 30 MiB between
// runs of one seed.
func residentMiB() float64 {
	debug.FreeOSMemory()
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(raw), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
