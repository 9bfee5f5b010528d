package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mptcpsim/internal/backend"
)

// sweep: a fluid-only backend.Sweep over every registered topology × the
// calibrated algorithm set × a 28-point load axis (as dense as `make
// sweep`'s, without its packet spot checks). Eq. 3 solving (fluid, core's
// ψ forms, backend) does all the work and no engine runs, so a sim, netem
// or tcp change must leave it unmoved.

// sweepLoads is the length of the load axis.
const sweepLoads = 28

// sweepSpec draws the load axis from the seed: one load uniformly inside
// each of sweepLoads equal strata of [0, 0.15), the calibrated range.
func sweepSpec(seed int64) backend.SweepSpec {
	rng := rand.New(rand.NewSource(seed))
	loads := make([]float64, sweepLoads)
	for i := range loads {
		l := 0.15 * (float64(i) + rng.Float64()) / sweepLoads
		loads[i] = math.Floor(l*1e5) / 1e5
	}
	return backend.SweepSpec{
		Topologies: backend.Topologies(),
		Algorithms: backend.DefaultSweepSpec().Algorithms,
		Loads:      loads,
		Seed:       seed,
		Backend:    "fluid",
		Workers:    1,
	}.WithDefaults()
}

func setupSweep(seed int64, tr *tracer, verify bool) func(*clock) outcome {
	spec := sweepSpec(seed)
	for _, p := range spec.Grid() {
		if err := p.Scenario(spec).Validate(); err != nil {
			return func(*clock) outcome { return outcome{err: fmt.Errorf("%s: %w", p.ID(), err)} }
		}
	}
	return func(clk *clock) outcome { return runSweep(spec, tr, verify, clk) }
}

// runSweep runs one backend.Sweep per topology, each a timed part. The
// grid is topology-major, so the parts' points concatenate in the full
// sweep's order and format identically.
func runSweep(spec backend.SweepSpec, tr *tracer, verify bool, clk *clock) outcome {
	ctx := context.Background()
	res := &backend.SweepResult{}
	var err error
	for _, topo := range spec.Topologies {
		part := spec
		part.Topologies = []string{topo}
		clk.part(func() {
			if err != nil {
				return
			}
			var r *backend.SweepResult
			if tr == nil {
				r, err = backend.Sweep(ctx, part)
			} else {
				r, err = tracedSweep(ctx, part, tr)
			}
			if err == nil {
				res.Points = append(res.Points, r.Points...)
				res.Checked += r.Checked
				res.Disagreements = append(res.Disagreements, r.Disagreements...)
			}
		})
	}
	var o outcome
	if err != nil {
		o.err = err
		return o
	}
	if verify {
		o.err = checkSweep(res)
	}

	var converged, segs float64
	for _, p := range res.Points {
		if p.Fluid.Converged {
			converged++
		}
		// Equilibrium packets over the scenario horizon: what the point
		// would have delivered had a packet engine simulated it.
		segs += p.Fluid.AggregateBps / (8 * wirePkt) * p.Scenario(spec).WithDefaults().Horizon.Seconds()
	}
	o.digest = res.Format()
	o.counts = layerCounts{"fluid.converged_frac": ratio(converged, float64(len(res.Points)))}
	o.pkts = segs
	o.flows = float64(len(res.Points))
	o.points = float64(len(res.Points))
	return o
}

// tracedSweep makes the same fluid pass Sweep makes, one timed
// FluidEngine.Run per point; the result must format identically.
func tracedSweep(ctx context.Context, spec backend.SweepSpec, tr *tracer) (*backend.SweepResult, error) {
	grid := spec.Grid()
	res := &backend.SweepResult{Points: make([]backend.PointResult, len(grid))}
	for i, p := range grid {
		ts := time.Now()
		r, err := backend.FluidEngine{}.Run(ctx, p.Scenario(spec))
		tr.pointNs += int64(time.Since(ts))
		tr.points++
		if err != nil {
			return nil, err
		}
		res.Points[i] = backend.PointResult{Point: p, Fluid: &r}
	}
	return res, nil
}

// checkSweep is the sweep's verification pass: no engine runs, so instead
// of check.Invariants every point must have finite, non-negative rates
// and per-path shares summing to one.
func checkSweep(res *backend.SweepResult) error {
	for _, p := range res.Points {
		r := p.Fluid
		sum := 0.0
		for _, s := range r.Shares {
			if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
				return fmt.Errorf("%s: share %v", p.ID(), s)
			}
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("%s: shares sum to %v", p.ID(), sum)
		}
		for _, x := range r.RateBps {
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("%s: rate %v", p.ID(), x)
			}
		}
		if r.Joules < 0 || math.IsNaN(r.Joules) || math.IsInf(r.Joules, 0) {
			return fmt.Errorf("%s: joules %v", p.ID(), r.Joules)
		}
	}
	return nil
}
