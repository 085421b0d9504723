// Package tcr reproduces "Throughput-Centric Routing Algorithm Design"
// (Towles, Dally, Boyd; SPAA 2003): linear-programming design of randomized
// oblivious routing algorithms for k-ary 2-cube (torus) networks, optimizing
// worst-case and average-case throughput, together with the paper's concrete
// algorithms (DOR, VAL, IVAL, ROMM, RLB, RLBth, 2TURN, 2TURNA, interpolated
// routing), an exact worst-case evaluator, and a flit-level network
// simulator for validating the analytical model.
//
// The package is a facade over the implementation packages:
//
//   - internal/lp        a from-scratch revised-simplex LP solver
//   - internal/matching  Hungarian assignment (the worst-case oracle)
//   - internal/topo      torus topology and its automorphism group
//   - internal/traffic   traffic matrices and Birkhoff decomposition
//   - internal/paths     path enumeration and loop removal
//   - internal/routing   the routing algorithms
//   - internal/eval      throughput/locality metrics
//   - internal/design    the LP design problems (capacity, worst case,
//     average case, 2TURN/2TURNA, Pareto sweeps)
//   - internal/sim       flit-level VC-router simulator
//
// Quick start:
//
//	t := tcr.NewTorus(8)
//	m, err := tcr.Report(t, tcr.IVAL(), nil)
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Printf("IVAL: H=%.3fx minimal, worst case %.1f%% of capacity\n",
//		m.HNorm, 100*m.WorstCaseFraction)
package tcr

import (
	"context"

	"tcr/internal/design"
	"tcr/internal/eval"
	"tcr/internal/routing"
	"tcr/internal/sim"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// Concurrency bounds the parallelism of the evaluation entry points
// (Evaluate, Report and their Ctx forms): 0 (the default) uses all cores
// (GOMAXPROCS); 1 reproduces the sequential engine bit for bit; any other
// value caps the worker count. The design entry points take the equivalent
// DesignOptions.Workers field instead, and the simulator takes
// SimConfig.Workers. Concurrency is read when a call starts and is not
// synchronized: set it during initialization, before issuing work.
var Concurrency int

// Torus is a k-ary 2-cube topology (see internal/topo).
type Torus = topo.Torus

// NewTorus constructs a k-ary 2-cube.
func NewTorus(k int) *Torus { return topo.NewTorus(k) }

// Topology is the network abstraction the design and simulation layers
// consume: any registered family (2D/3D tori, meshes) exposing port
// arithmetic, distances, and its automorphism group (see internal/topo).
// *Torus satisfies it.
type Topology = topo.Topology

// ParseTopology resolves a "family:spec" string — "torus2d:8", "torus3d:4",
// "mesh:8x8" — through the topology family registry.
func ParseTopology(s string) (Topology, error) { return topo.Parse(s) }

// Algorithm is a randomized oblivious routing algorithm: a probability
// distribution over paths for every source-destination pair.
type Algorithm = routing.Algorithm

// DOR returns dimension-order routing (x first), Table 1.
func DOR() Algorithm { return routing.DOR{} }

// VAL returns Valiant's randomized algorithm, Table 1.
func VAL() Algorithm { return routing.VAL{} }

// IVAL returns the paper's improved Valiant algorithm (Section 5.2).
func IVAL() Algorithm { return routing.IVAL{} }

// ROMM returns two-phase randomized minimal routing, Table 1.
func ROMM() Algorithm { return routing.ROMM{} }

// RLB returns randomized local balance, Table 1.
func RLB() Algorithm { return routing.RLB{} }

// RLBth returns the thresholded RLB variant, Table 1.
func RLBth() Algorithm { return routing.RLB{Threshold: true} }

// O1TURN returns minimal routing with random dimension order (a post-paper
// algorithm included as an extra minimal baseline).
func O1TURN() Algorithm { return routing.O1TURN{} }

// GOALish returns the oblivious GOAL-style quadrant-staircase algorithm
// used for the Section 5.5 adaptive-routing comparison.
func GOALish() Algorithm { return routing.GOALish{} }

// Interpolate mixes two algorithms: route with a with probability alpha,
// otherwise with b (Section 5.3).
func Interpolate(a, b Algorithm, alpha float64) Algorithm {
	return routing.Interpolated{A: a, B: b, Alpha: alpha}
}

// Flow is the channel-load fingerprint of an algorithm, from which all
// throughput metrics derive.
type Flow = eval.Flow

// Evaluate computes an algorithm's flow table on a torus, on Concurrency
// workers.
func Evaluate(t *Torus, alg Algorithm) *Flow {
	f, err := EvaluateCtx(context.Background(), t, alg)
	if err != nil {
		// Unreachable: path enumeration cannot fail, and the background
		// context is never cancelled.
		panic(err)
	}
	return f
}

// EvaluateCtx is Evaluate under a cancellation context: the per-pair
// enumeration aborts early once ctx is done.
func EvaluateCtx(ctx context.Context, t *Torus, alg Algorithm) (*Flow, error) {
	return eval.FromAlgorithmCtx(ctx, t, alg, Concurrency)
}

// NetworkCapacity returns the torus's ideal uniform-traffic throughput, the
// normalizer for all throughput fractions.
func NetworkCapacity(t *Torus) float64 { return eval.NetworkCapacity(t) }

// Traffic is a (doubly-stochastic) traffic pattern.
type Traffic = traffic.Matrix

// UniformTraffic, TornadoTraffic and TransposeTraffic are standard patterns.
func UniformTraffic(t *Torus) *Traffic   { return traffic.Uniform(t.N) }
func TornadoTraffic(t *Torus) *Traffic   { return traffic.Tornado(t) }
func TransposeTraffic(t *Torus) *Traffic { return traffic.Transpose(t) }

// SampleTraffic draws count random doubly-stochastic matrices (the set X of
// the average-case cost function) with a fixed seed.
func SampleTraffic(t *Torus, count int, seed int64) []*Traffic {
	return traffic.Sample(t.N, count, seed)
}

// Metrics summarizes an algorithm on a topology in the paper's units.
type Metrics struct {
	// HAvg is the average path length in hops over all pairs; HNorm is
	// normalized to the mean minimal path length (1.0 = minimal).
	HAvg, HNorm float64
	// Capacity is this algorithm's uniform-traffic throughput as an
	// injection fraction; CapacityFraction normalizes by the network's
	// ideal capacity.
	Capacity, CapacityFraction float64
	// GammaWC is the exact worst-case channel load; WorstCaseFraction is
	// the worst-case throughput as a fraction of network capacity (the
	// horizontal axis of Figure 1).
	GammaWC, WorstCaseFraction float64
	// AvgCaseFraction is the approximate average-case throughput as a
	// fraction of capacity (Figure 6's axis); zero when no sample given.
	AvgCaseFraction float64
}

// flowCache memoizes flow tables across Report invocations: repeated
// reports on the same (radix, algorithm) — CLI subcommands, interpolation
// sweeps — reuse one path-enumeration pass. Designed routing tables have no
// stable identity and bypass it (see eval.FlowKey).
var flowCache = eval.NewCache()

// Report evaluates the paper's metrics for an algorithm; samples may be nil
// to skip the average case. Flow tables are memoized across calls, so
// re-reporting an algorithm (at a different sample set, say) is cheap.
func Report(t *Torus, alg Algorithm, samples []*Traffic) (Metrics, error) {
	return ReportCtx(context.Background(), t, alg, samples)
}

// ReportCtx is Report under a cancellation context, which bounds both the
// flow evaluation and the exact worst-case (Hungarian) computation.
func ReportCtx(ctx context.Context, t *Torus, alg Algorithm, samples []*Traffic) (Metrics, error) {
	f, err := flowCache.Evaluate(ctx, t, alg, Concurrency)
	if err != nil {
		return Metrics{}, err
	}
	cap := NetworkCapacity(t)
	gw, _, err := f.WorstCaseCtx(ctx, Concurrency)
	if err != nil {
		return Metrics{}, err
	}
	m := Metrics{
		HAvg:              f.HAvg(),
		HNorm:             f.HNorm(),
		Capacity:          f.Capacity(),
		CapacityFraction:  f.Capacity() / cap,
		GammaWC:           gw,
		WorstCaseFraction: (1 / gw) / cap,
	}
	if len(samples) > 0 {
		ac, err := f.AvgCaseCtx(ctx, samples, Concurrency)
		if err != nil {
			return Metrics{}, err
		}
		m.AvgCaseFraction = ac.ApproxThroughput / cap
	}
	return m, nil
}

// DesignOptions tunes the LP-based designers; the zero value is sensible.
type DesignOptions = design.Options

// ParetoPoint is one sample of an optimal tradeoff curve.
type ParetoPoint = design.ParetoPoint

// DesignResult is the outcome of a flow-based design problem.
type DesignResult = design.Result

// PathDesignResult is the outcome of a path-based design (2TURN, 2TURNA),
// including an executable routing table.
type PathDesignResult = design.PathResult

// WorstCaseOptimal designs the maximum-worst-case-throughput routing
// function (the right end of Figure 1's Pareto curve).
func WorstCaseOptimal(t *Torus, opts DesignOptions) (*DesignResult, error) {
	return design.WorstCaseOptimal(t, opts)
}

// WorstCaseOptimalCtx is WorstCaseOptimal under a cancellation context.
func WorstCaseOptimalCtx(ctx context.Context, t *Torus, opts DesignOptions) (*DesignResult, error) {
	return design.WorstCaseOptimalCtx(ctx, t, opts)
}

// WorstCaseParetoCurve computes Figure 1's optimal tradeoff curve: best
// worst-case throughput at each normalized locality bound.
func WorstCaseParetoCurve(t *Torus, hNorms []float64, opts DesignOptions) ([]ParetoPoint, error) {
	return design.WorstCaseParetoCurve(t, hNorms, opts)
}

// WorstCaseParetoCurveCtx is WorstCaseParetoCurve under a cancellation
// context. With opts.Workers != 1 the curve's points solve as independent
// LPs in parallel, returned in hNorms order.
func WorstCaseParetoCurveCtx(ctx context.Context, t *Torus, hNorms []float64, opts DesignOptions) ([]ParetoPoint, error) {
	return design.WorstCaseParetoCurveCtx(ctx, t, hNorms, opts)
}

// OptimalLocalityAtMaxWorstCase finds the best locality achievable at
// maximum worst-case throughput (Figure 4's "optimal" series). The stage-2
// slack is opts.Slack (default 1e-6); before the DesignOptions.Slack field
// existed this facade hard-coded the same value as a private constant.
func OptimalLocalityAtMaxWorstCase(t *Torus, opts DesignOptions) (*DesignResult, error) {
	return design.MinLocalityAtWorstCase(t, opts)
}

// OptimalLocalityAtMaxWorstCaseCtx is OptimalLocalityAtMaxWorstCase under a
// cancellation context.
func OptimalLocalityAtMaxWorstCaseCtx(ctx context.Context, t *Torus, opts DesignOptions) (*DesignResult, error) {
	return design.MinLocalityAtWorstCaseCtx(ctx, t, opts)
}

// Design2Turn constructs the 2TURN algorithm (Section 5.2); the stage-2
// slack is opts.Slack. A round, simplex or deadline budget that runs out
// yields an uncertified result with a nil error: Certified is false, Reason
// names the stage and the cause, and Table is the best iterate's. Check
// Certified before relying on the table as the optimal design.
func Design2Turn(t *Torus, opts DesignOptions) (*PathDesignResult, error) {
	return design.DesignTwoTurn(t, opts)
}

// Design2TurnCtx is Design2Turn under a cancellation context.
func Design2TurnCtx(ctx context.Context, t *Torus, opts DesignOptions) (*PathDesignResult, error) {
	return design.DesignTwoTurnCtx(ctx, t, opts)
}

// Design2TurnA constructs the 2TURNA algorithm (Section 5.4) over a traffic
// sample; the stage-2 slack is opts.Slack. Budgets degrade as for
// Design2Turn: check Certified and Reason.
func Design2TurnA(t *Torus, samples []*Traffic, opts DesignOptions) (*PathDesignResult, error) {
	return design.DesignTwoTurnAvg(t, samples, opts)
}

// Design2TurnACtx is Design2TurnA under a cancellation context.
func Design2TurnACtx(ctx context.Context, t *Torus, samples []*Traffic, opts DesignOptions) (*PathDesignResult, error) {
	return design.DesignTwoTurnAvgCtx(ctx, t, samples, opts)
}

// AvgCaseOptimal designs for maximum (approximate) average-case throughput
// over the sample.
func AvgCaseOptimal(t *Torus, samples []*Traffic, opts DesignOptions) (*DesignResult, error) {
	return design.AvgCaseOptimal(t, samples, opts)
}

// AvgCaseOptimalCtx is AvgCaseOptimal under a cancellation context.
func AvgCaseOptimalCtx(ctx context.Context, t *Torus, samples []*Traffic, opts DesignOptions) (*DesignResult, error) {
	return design.AvgCaseOptimalCtx(ctx, t, samples, opts)
}

// AvgCaseParetoCurve computes Figure 6's optimal tradeoff curve.
func AvgCaseParetoCurve(t *Torus, samples []*Traffic, hNorms []float64, opts DesignOptions) ([]ParetoPoint, error) {
	return design.AvgCaseParetoCurve(t, samples, hNorms, opts)
}

// AvgCaseParetoCurveCtx is AvgCaseParetoCurve under a cancellation context,
// with the same per-point parallelism as WorstCaseParetoCurveCtx.
func AvgCaseParetoCurveCtx(ctx context.Context, t *Torus, samples []*Traffic, hNorms []float64, opts DesignOptions) ([]ParetoPoint, error) {
	return design.AvgCaseParetoCurveCtx(ctx, t, samples, hNorms, opts)
}

// TableFromFlow recovers an executable routing algorithm from a designed
// flow table by path decomposition.
func TableFromFlow(f *Flow, label string) (Algorithm, error) {
	return design.DecomposeFlow(f, label)
}

// SimConfig parameterizes the flit-level simulator.
type SimConfig = sim.Config

// SimStats is a simulation measurement.
type SimStats = sim.Stats

// SimulateCtx runs cfg's warmup window then its measurement window
// (SimConfig.Warmup and SimConfig.Measure; zero values select the
// simulator defaults) and returns the stats. The context is checked
// periodically during the run.
func SimulateCtx(ctx context.Context, cfg SimConfig) (SimStats, error) {
	return sim.Simulate(ctx, cfg)
}

// Simulate runs warmup then a measurement window and returns the stats.
//
// Deprecated: the window lengths moved into the configuration. Set
// SimConfig.Warmup and SimConfig.Measure and call SimulateCtx instead;
// this positional form remains as a thin wrapper.
func Simulate(cfg SimConfig, warmup, measure int) (SimStats, error) {
	cfg.Warmup, cfg.Measure = warmup, measure
	return SimulateCtx(context.Background(), cfg)
}

// SaturationResult is a simulated load sweep's outcome.
type SaturationResult = sim.SaturationResult

// FindSaturationCtx sweeps offered load and reports the accepted-throughput
// plateau (the simulated saturation point). Window lengths come from
// SimConfig.Warmup/Measure and the sweep runs its independent rate points
// on SimConfig.Workers goroutines; the result is identical for every
// worker count.
func FindSaturationCtx(ctx context.Context, cfg SimConfig, rates []float64) (SaturationResult, error) {
	return sim.FindSaturation(ctx, cfg, rates)
}

// FindSaturation sweeps offered load and reports the saturation plateau.
//
// Deprecated: the window lengths moved into the configuration. Set
// SimConfig.Warmup and SimConfig.Measure and call FindSaturationCtx
// instead; this positional form remains as a thin wrapper.
func FindSaturation(cfg SimConfig, rates []float64, warmup, measure int) (SaturationResult, error) {
	cfg.Warmup, cfg.Measure = warmup, measure
	return FindSaturationCtx(context.Background(), cfg, rates)
}
