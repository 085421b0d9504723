package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"tcr/internal/design"
	"tcr/internal/lp"
	"tcr/internal/serve"
	"tcr/internal/store"
	"tcr/internal/topo"
)

// instance is one certification the design workload times, with the
// reference optimum its output is checked against.
type instance struct {
	Name   string
	Design *store.DesignRequest
	Pareto *store.ParetoRequest
	// Gamma is the reference optimal worst-case load: of the design, or of
	// the sweep's last (loosest-locality) point.
	Gamma float64
}

// designSet is the fixed instance set. Full k=6 wcopt (~44 s) and 2TURN k=4
// (~14 s) are left out: each workload runs 22 times per check.
var designSet = []instance{
	{Name: "k6h125", Design: &store.DesignRequest{K: 6, Kind: store.DesignWorstCase, HNorm: 1.25}, Gamma: 1.71875},
	{Name: "k5", Design: &store.DesignRequest{K: 5, Kind: store.DesignWorstCase}, Gamma: 1.2},
	{Name: "k4minloc", Design: &store.DesignRequest{K: 4, Kind: store.DesignMinLocality}, Gamma: 1.0},
	{Name: "t3d3", Design: &store.DesignRequest{Topology: "torus3d:3", Kind: store.DesignWorstCase}, Gamma: 2.0 / 3},
	{Name: "mesh4x4", Design: &store.DesignRequest{Topology: "mesh:4x4", Kind: store.DesignWorstCase}, Gamma: 2.0},
	{Name: "pareto5", Pareto: &store.ParetoRequest{K: 5, HMin: 1, HMax: 2, Points: 5}, Gamma: 1.2},
}

// smokeSet is the cheap part of designSet that smoke mode runs alone.
var smokeSet = []instance{designSet[1], designSet[2]}

// baseLPs are the instances whose cut-free base LP the traced run solves on
// its own, to set the cost of one cold LP beside the whole cut loop.
var baseLPs = []string{"k6h125", "mesh4x4"}

// Output tolerances. Gamma is relative: the lexicographic stage 2 relaxes
// the stage-1 optimum by the default 1e-6 slack.
const (
	gammaRelTol = 1e-5
	hnormTol    = 1e-6
)

func (in instance) topology() (topo.Topology, error) {
	switch {
	case in.Pareto != nil:
		return topo.NewTorus(in.Pareto.K), nil
	case in.Design.Topology != "":
		return topo.Parse(in.Design.Topology)
	default:
		return topo.NewTorus(in.Design.K), nil
	}
}

// certify runs the instance through the artifact producers the CLI and
// daemon share, and checks the result. A nil error means certified and
// correct.
func (in instance) certify(ctx context.Context) (*store.DesignArtifact, error) {
	opts := design.Options{Workers: 1}
	if in.Pareto != nil {
		art, err := serve.ComputePareto(ctx, *in.Pareto, opts)
		if err != nil {
			return nil, err
		}
		return nil, checkPareto(art, in.Gamma)
	}
	art, err := serve.ComputeDesign(ctx, *in.Design, opts)
	if err != nil {
		return nil, err
	}
	return art, checkDesign(art, in.Gamma)
}

func closeRel(got, want float64) bool {
	return math.Abs(got-want) <= gammaRelTol*math.Abs(want)
}

// wrongOutput marks a check that failed on an output the program did
// produce, as opposed to an operation that failed outright.
type wrongOutput struct{ error }

func wrongf(format string, args ...any) error { return wrongOutput{fmt.Errorf(format, args...)} }

func checkDesign(art *store.DesignArtifact, gamma float64) error {
	switch {
	case !art.Certified:
		return fmt.Errorf("uncertified after %d rounds: %s", art.Rounds, art.Reason)
	case !closeRel(art.GammaWC, gamma):
		return wrongf("gamma %.9g, want %.9g", art.GammaWC, gamma)
	}
	return checkHNorm(art)
}

// checkHNorm requires a locality-constrained design to stay within its
// budget.
func checkHNorm(art *store.DesignArtifact) error {
	if art.Request.HNorm > 0 && art.HNorm > art.Request.HNorm+hnormTol {
		return wrongf("hnorm %.9g over budget %.9g", art.HNorm, art.Request.HNorm)
	}
	return nil
}

// checkPareto requires every point to meet its locality target, throughput
// to rise and load to fall along the sweep, and the last point to reach the
// reference optimum.
func checkPareto(art *store.ParetoArtifact, gamma float64) error {
	r := art.Request
	if len(art.Points) != r.Points {
		return wrongf("pareto: %d points, want %d", len(art.Points), r.Points)
	}
	for i, p := range art.Points {
		want := r.HMin + (r.HMax-r.HMin)*float64(i)/float64(r.Points-1)
		if math.Abs(p.HNorm-want) > hnormTol {
			return wrongf("pareto: point %d at hnorm %.9g, want %.9g", i, p.HNorm, want)
		}
		if i > 0 {
			q := art.Points[i-1]
			if p.Theta < q.Theta-gammaRelTol || p.Gamma > q.Gamma*(1+gammaRelTol) {
				return wrongf("pareto: not monotone at point %d", i)
			}
		}
	}
	if last := art.Points[len(art.Points)-1]; !closeRel(last.Gamma, gamma) {
		return wrongf("pareto: last gamma %.9g, want %.9g", last.Gamma, gamma)
	}
	return nil
}

// prepare builds each instance's topology and cut-free base LP and solves
// that LP cold: the work a design call does before its first cutting-plane
// round. It is the design workload's set-up.
func prepare(set []instance) error {
	for _, in := range set {
		t, err := in.topology()
		if err != nil {
			return fmt.Errorf("%s: %w", in.Name, err)
		}
		p := design.NewFlowLP(t, false, design.Options{Workers: 1})
		if _, err := lp.NewSolver(p.Model()).Solve(); err != nil {
			return fmt.Errorf("%s base LP: %w", in.Name, err)
		}
	}
	return nil
}

// designPass is one timed pass over the instance set.
type designPass struct {
	Wall  time.Duration
	Times map[string]time.Duration
	Arts  map[string]*store.DesignArtifact
}

func runDesignPass(ctx context.Context, set []instance, tr *tracer, res *result) designPass {
	p := designPass{Times: map[string]time.Duration{}, Arts: map[string]*store.DesignArtifact{}}
	start := time.Now()
	for i, in := range set {
		var art *store.DesignArtifact
		var err error
		t0 := time.Now()
		tr.do("serve.Compute", in.Name, 0, int64(i+1), func() { art, err = in.certify(ctx) })
		p.Times[in.Name] = time.Since(t0)
		p.Arts[in.Name] = art
		var w wrongOutput
		if errors.As(err, &w) {
			res.mismatch("design %s: %v", in.Name, err)
		}
		res.attempt(err == nil, "design %s: %v", in.Name, err)
	}
	p.Wall = time.Since(start)
	return p
}

func runDesign(ctx context.Context, cfg config, res *result) error {
	set := designSet
	if cfg.smoke {
		set = smokeSet
	}
	var setups []float64
	for i := 0; i < cfg.setupReps(21); i++ {
		t0 := time.Now()
		if err := prepare(set); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.setup(setups)
	res.record["instances"] = len(set)
	if cfg.trace {
		return traceDesign(ctx, cfg, set, res)
	}

	heap := startHeapSampler()
	deadline := time.Duration(cfg.seconds) * time.Second
	var passes []designPass
	cpu0 := cpuTime()
	start := time.Now()
	for {
		passes = append(passes, runDesignPass(ctx, set, nil, res))
		last := passes[len(passes)-1].Wall
		if time.Since(start)+last > deadline {
			break
		}
	}
	measured := time.Since(start)
	res.cpu(cpuTime()-cpu0, res.attempted)
	res.heap = heap.stop()

	var walls, lat []float64
	for _, p := range passes {
		walls = append(walls, p.Wall.Seconds())
		for _, d := range p.Times {
			lat = append(lat, ms(d))
		}
	}
	res.e2e("wall_s", median(walls))
	res.latency(lat)
	res.e2e("goodput_rps", float64(res.attempted-res.failed)/measured.Seconds())
	res.record["passes"] = len(passes)
	return nil
}

// traceDesign is the design workload's traced run: one pass with spans
// around each certification, then probes of the layers beneath it — the
// separation oracle on each certified flow, the cut-free base LP, and the
// model build.
func traceDesign(ctx context.Context, cfg config, set []instance, res *result) error {
	tr := newTracer()
	traced := runDesignPass(ctx, set, tr, res)

	for _, in := range set {
		s := traced.Times[in.Name].Seconds()
		res.layer("design."+in.Name+".s", s)
		art := traced.Arts[in.Name]
		if art == nil {
			continue
		}
		t, err := in.topology()
		if err != nil {
			return err
		}
		f, err := serve.ArtifactFlow(t, art)
		if err != nil {
			return fmt.Errorf("%s: %w", in.Name, err)
		}
		for i := 0; i < 3; i++ {
			var werr error
			tr.do("eval.WorstCaseCtx", in.Name, 0, 0, func() { _, _, werr = f.WorstCaseCtx(ctx, 1) })
			if werr != nil {
				return fmt.Errorf("%s oracle: %w", in.Name, werr)
			}
		}
		pass := median(tr.durations("eval.WorstCaseCtx", in.Name)) / 1000
		oracleS := float64(art.Rounds) * pass
		res.layer("design."+in.Name+".rounds", float64(art.Rounds))
		res.layer("eval.oracle_pass_ms."+in.Name, pass*1000)
		res.layer("design."+in.Name+".lp_est_s", s-oracleS)
		res.layer("design."+in.Name+".oracle_share_est", oracleS/s)
	}

	var builds []float64
	for i := 0; i < 3; i++ {
		var total time.Duration
		for _, name := range baseLPs {
			in, ok := findInstance(set, name)
			if !ok {
				continue
			}
			t, err := in.topology()
			if err != nil {
				return err
			}
			var p *design.FlowLP
			t0 := time.Now()
			tr.do("design.NewFlowLP", name, 0, 0, func() { p = design.NewFlowLP(t, false, design.Options{Workers: 1}) })
			total += time.Since(t0)
			if i > 0 {
				continue
			}
			var sol *lp.Solution
			var serr error
			tr.do("lp.Solve", name, 0, 0, func() { sol, serr = lp.NewSolver(p.Model()).Solve() })
			if serr != nil {
				return fmt.Errorf("%s base LP: %w", name, serr)
			}
			res.layer("lp.base_solve_ms."+name, median(tr.durations("lp.Solve", name)))
			res.layer("lp.base_pivots."+name, float64(sol.Iterations))
			res.layer("lp.base_refactorizations."+name, float64(sol.Diag.Refactorizations))
		}
		builds = append(builds, ms(total))
	}
	res.layer("design.model_build_ms", median(builds))
	res.traceCost(tr)
	return res.writeTrace(cfg, tr)
}

func findInstance(set []instance, name string) (instance, bool) {
	for _, in := range set {
		if in.Name == name {
			return in, true
		}
	}
	return instance{}, false
}
