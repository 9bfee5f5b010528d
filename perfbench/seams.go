package main

import (
	"bytes"
	"hash"
	"hash/fnv"
	"time"

	"mptcpsim/internal/core"
	"mptcpsim/internal/energy"
	"mptcpsim/internal/flows"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// tracer collects one traced repeat's seam timings and counts. A nil
// *tracer means tracing is off: workloads then install no wrapper and no
// sampler, so the untraced runs execute exactly the program's own code.
//
// Every timer sits on a public seam where the simulator hands control to
// code the benchmark supplies (a flows.Net, an energy.Model or Probe, the
// obsv stream, a core.Algorithm); spans inside the program are left to a
// later change.
type tracer struct {
	pathsCalls, pathsNs int64 // flows.Net.Paths
	modelCalls, modelNs int64 // energy.Model.Power
	probeCalls, probeNs int64 // energy.Probe (one per meter tick)
	lines, lineNs       int64 // obsv sample lines: first sampler call to end of write
	incCalls, incNs     int64 // core.Algorithm.Increase
	points, pointNs     int64 // backend.FluidEngine.Run
	topoNs, topoBuilds  int64 // topology constructors

	// Sampler event: peaks of engine Pending() and link QueueLen(), and the
	// number of sampler events that fired (subtracted from sim.events so
	// the traced repeat's counts equal the untraced ones).
	samplerTicks int64
	pendingPeak  int
	queuePeak    int

	lineStart time.Time
}

// sampleEvery is the sampler's simulated-time period.
const sampleEvery = sim.Millisecond

// sample schedules the sampler event on eng over links. It reads state
// only, so the simulated results are unchanged.
func (tr *tracer) sample(eng *sim.Engine, links []*netem.Link) {
	if tr == nil {
		return
	}
	var tick func()
	tick = func() {
		tr.samplerTicks++
		tr.pendingPeak = max(tr.pendingPeak, eng.Pending())
		for _, l := range links {
			tr.queuePeak = max(tr.queuePeak, l.QueueLen())
		}
		eng.ScheduleAfter(sampleEvery, tick)
	}
	eng.ScheduleAfter(sampleEvery, tick)
}

// buildTopo times a topology constructor when tracing.
func buildTopo[T any](tr *tracer, build func() T) T {
	if tr == nil {
		return build()
	}
	t0 := time.Now()
	v := build()
	tr.topoNs += int64(time.Since(t0))
	tr.topoBuilds++
	return v
}

// timedNet wraps the topology a flows.Manager places flows on.
type timedNet struct {
	flows.Net
	tr *tracer
}

func (n timedNet) Paths(src, dst, k int) []*netem.Path {
	t0 := time.Now()
	p := n.Net.Paths(src, dst, k)
	n.tr.pathsNs += int64(time.Since(t0))
	n.tr.pathsCalls++
	return p
}

func wrapNet(net flows.Net, tr *tracer) flows.Net {
	if tr == nil {
		return net
	}
	return timedNet{net, tr}
}

// timedModel wraps an energy model.
type timedModel struct {
	energy.Model
	tr *tracer
}

func (m timedModel) Power(s energy.Sample) float64 {
	t0 := time.Now()
	w := m.Model.Power(s)
	m.tr.modelNs += int64(time.Since(t0))
	m.tr.modelCalls++
	return w
}

func wrapModel(m energy.Model, tr *tracer) energy.Model {
	if tr == nil {
		return m
	}
	return timedModel{m, tr}
}

func wrapProbe(p energy.Probe, tr *tracer) energy.Probe {
	if tr == nil {
		return p
	}
	return func(window sim.Time) energy.Sample {
		t0 := time.Now()
		s := p(window)
		tr.probeNs += int64(time.Since(t0))
		tr.probeCalls++
		return s
	}
}

// jsonlSink is the obsv stream's destination: it counts lines and bytes
// and hashes the stream, so the record is part of the result digest. When
// tracing, mark (registered as the recorder's first sampler) starts the
// clock at the top of each sample tick and Write stops it, which times
// the recorder's sampling and encoding per line.
type jsonlSink struct {
	lines, bytes int64
	sum          hash.Hash64
	tr           *tracer
}

func newJSONLSink(tr *tracer) *jsonlSink { return &jsonlSink{sum: fnv.New64a(), tr: tr} }

func (s *jsonlSink) Write(b []byte) (int, error) {
	s.lines += int64(bytes.Count(b, []byte{'\n'}))
	s.bytes += int64(len(b))
	s.sum.Write(b)
	if tr := s.tr; tr != nil && !tr.lineStart.IsZero() {
		tr.lineNs += int64(time.Since(tr.lineStart))
		tr.lines++
		tr.lineStart = time.Time{}
	}
	return len(b), nil
}

// mark is a constant series: its value is the same traced or not, so the
// record does not change; only its call time is used.
func (s *jsonlSink) mark() float64 {
	if s.tr != nil {
		s.tr.lineStart = time.Now()
	}
	return 0
}

// Algorithm decorators. The transport discovers optional behaviour by
// type assertion, so a decorator must implement exactly the optional
// interfaces its inner algorithm does, or results change. decorate wraps
// only algorithms whose optional set one of these types matches.

type timedAlg struct {
	core.Algorithm
	tr *tracer
}

func (a *timedAlg) Increase(views []core.View, r int) float64 {
	t0 := time.Now()
	v := a.Algorithm.Increase(views, r)
	a.tr.incNs += int64(time.Since(t0))
	a.tr.incCalls++
	return v
}

// timedObserverAlg forwards core.AckObserver and core.LossObserver (OLIA).
type timedObserverAlg struct{ timedAlg }

func (a *timedObserverAlg) OnAck(views []core.View, r, acked int, ece bool) {
	a.Algorithm.(core.AckObserver).OnAck(views, r, acked, ece)
}

func (a *timedObserverAlg) OnLoss(views []core.View, r int) {
	a.Algorithm.(core.LossObserver).OnLoss(views, r)
}

// timedIntrospectorAlg forwards core.Introspector and core.IntrospectorInto
// (the DTS family).
type timedIntrospectorAlg struct{ timedAlg }

func (a *timedIntrospectorAlg) Introspect(views []core.View, r int) map[string]float64 {
	return a.Algorithm.(core.Introspector).Introspect(views, r)
}

func (a *timedIntrospectorAlg) IntrospectInto(views []core.View, r int, out map[string]float64) {
	a.Algorithm.(core.IntrospectorInto).IntrospectInto(views, r, out)
}

// Optional interfaces the simulator asserts on, as bit positions.
const (
	optAck = iota
	optLoss
	optIntrospect
	optIntrospectInto
	optClock
	optTimeout
	optMembership
	optWeighted
	optRound
)

func optionalSet(a core.Algorithm) int {
	set := 0
	for bit, ok := range []bool{
		optAck:            implements[core.AckObserver](a),
		optLoss:           implements[core.LossObserver](a),
		optIntrospect:     implements[core.Introspector](a),
		optIntrospectInto: implements[core.IntrospectorInto](a),
		optClock:          implements[core.ClockUser](a),
		optTimeout:        implements[core.TimeoutObserver](a),
		optMembership:     implements[core.MembershipObserver](a),
		optWeighted:       implements[core.Weighted](a),
		optRound:          implements[core.RoundTuner](a),
	} {
		if ok {
			set |= 1 << bit
		}
	}
	return set
}

func implements[T any](a core.Algorithm) bool {
	_, ok := a.(T)
	return ok
}

// decorate returns a timed wrapper of a when one forwards exactly a's
// optional interfaces, and a itself otherwise (untimed, unchanged).
func decorate(a core.Algorithm, tr *tracer) core.Algorithm {
	if tr == nil {
		return a
	}
	base := timedAlg{a, tr}
	switch optionalSet(a) {
	case 0:
		return &base
	case 1<<optAck | 1<<optLoss:
		return &timedObserverAlg{base}
	case 1<<optIntrospect | 1<<optIntrospectInto:
		return &timedIntrospectorAlg{base}
	}
	return a
}
