package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"sort"
	"testing"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/core"
)

// TestRepeatsAreExact runs each workload twice untraced, once traced and
// once under the invariant checker: every repeat must produce the first
// one's digest, and the untraced and traced repeats its per-layer counts.
func TestRepeatsAreExact(t *testing.T) {
	for _, name := range []string{"bulk", "churn", "sweep"} {
		t.Run(name, func(t *testing.T) {
			var log bytes.Buffer
			s := &session{setup: workloads[name], seed: defaultSeed, clk: &clock{yard: newYardstick()}, out: io.Discard, log: &log}
			first, _ := s.attempt(nil, false)
			s.attempt(nil, false)
			tr := &tracer{}
			s.attempt(tr, false)
			s.attempt(nil, true)
			if s.failed != 0 {
				t.Fatalf("%d of %d repeats failed:\n%s", s.failed, s.attempted, log.String())
			}
			if len(first.counts) == 0 || first.digest == "" {
				t.Fatalf("empty counts %v or digest %q", first.counts, first.digest)
			}
			if name != "sweep" && (tr.samplerTicks == 0 || first.counts["sim.events"] == 0) {
				t.Errorf("sampler ticks %d, sim.events %v: nothing simulated", tr.samplerTicks, first.counts["sim.events"])
			}
		})
	}
}

// TestSweepPartsMatchOneSweep pins that the sweep, run as one
// backend.Sweep per topology, formats exactly as a single Sweep over the
// whole grid.
func TestSweepPartsMatchOneSweep(t *testing.T) {
	spec := sweepSpec(defaultSeed)
	whole, err := backend.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	o := runSweep(spec, nil, false, &clock{})
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.digest != whole.Format() {
		t.Errorf("per-topology sweep formats differently from one sweep:\n%s\nwant\n%s", o.digest, whole.Format())
	}
}

// TestDecoratorKeepsOptionalInterfaces pins that every bulk algorithm is
// timed, and that its decorator exposes exactly the inner algorithm's
// optional interfaces.
func TestDecoratorKeepsOptionalInterfaces(t *testing.T) {
	for _, name := range bulkAlgorithms {
		alg := core.MustNew(name)
		dec := decorate(alg, &tracer{})
		if dec == alg {
			t.Errorf("%s: not decorated", name)
		}
		if got, want := optionalSet(dec), optionalSet(alg); got != want {
			t.Errorf("%s: decorator optional set %b, algorithm %b", name, got, want)
		}
	}
	if a := core.MustNew("wvegas"); decorate(a, &tracer{}) != a {
		t.Error("wvegas has optional interfaces no decorator forwards; it must stay undecorated")
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"mptcpsim/internal/sim.(*Engine).siftDown":        "sim",
		"mptcpsim/internal/netem.(*Packet).fwd.func1":     "netem",
		"mptcpsim/internal/core.(*OLIA).alpha":            "core",
		"mptcpsim/internal/workload.(*ParetoOnOff).burst": "other",
		"mptcpsim/perfbench.(*tracer).sample.func1":       "other",
		"runtime.mallocgc":                                "go",
		"runtime._ExternalCode":                           "go",
		"internal/runtime/maps.(*Map).getWithKey":         "go",
		"math.Pow":            "other",
		"strconv.genericFtoa": "other",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileSharesSumToOne profiles one bulk repeat and checks the
// bucketing: every layer is reported, the shares sum to one, and the
// event loop (about half of a bulk repeat's CPU) shows up.
func TestProfileSharesSumToOne(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	setupBulk(defaultSeed, nil, false)(&clock{})
	pprof.StopCPUProfile()
	shares, err := layerShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range append(slices.Clone(profileLayers), "go", "other") {
		v, ok := shares[l]
		if !ok {
			t.Errorf("layer %s missing", l)
		}
		sum += v
	}
	if len(shares) != len(profileLayers)+2 {
		t.Errorf("unexpected layers in %v", shares)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v: %v", sum, shares)
	}
	if shares["sim"] == 0 {
		t.Errorf("no sim samples in a bulk repeat: %v", shares)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metric
// lists in step with the program's.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestProfileSkipsYardstick profiles only yardstick measurements: most
// samples must be recognised as the yardstick's, to be left out of the
// layer shares. The rest is sweeping and marking that the yardstick's
// garbage causes on the runtime's own goroutines, whose stacks name no
// caller; it is about a fifth of the yardstick's CPU.
func TestProfileSkipsYardstick(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	y := newYardstick()
	for range 20 {
		y.measure()
	}
	pprof.StopCPUProfile()
	p, err := decodeProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	in := 0
	for _, s := range p.samples {
		if p.inYardstick(s) {
			in++
		}
	}
	if len(p.samples) < 10 {
		t.Skipf("only %d samples taken", len(p.samples))
	}
	if in < len(p.samples)*3/4 {
		t.Errorf("%d of %d yardstick samples recognised", in, len(p.samples))
	}
}
