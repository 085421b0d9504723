package design

import (
	"context"
	"errors"
	"fmt"

	"tcr/internal/eval"
	"tcr/internal/lp"
	"tcr/internal/par"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// AvgCaseLP is the average-case design problem of Section 3.3/5.4: minimize
// (1/|X|) sum_i t_i with t_i >= gamma_max(R, Lambda_i) over a fixed sample X
// of doubly-stochastic matrices, optionally at a fixed locality. Per-sample
// max constraints are generated lazily: only the channels that actually
// achieve a sample's maximum ever enter the LP.
type AvgCaseLP struct {
	flp     *FlowLP
	samples []*traffic.Matrix
	tVars   []lp.VarID
}

// NewAvgCaseLP builds the base problem over the given sample. The model is
// the flow LP's layout plus one t variable per sample carrying the
// (1/|X|) objective weight; the w slot is kept as a zero-cost placeholder so
// variable indexing matches FlowLP.
func NewAvgCaseLP(t topo.Topology, samples []*traffic.Matrix, withLocality bool, opts Options) *AvgCaseLP {
	p := newBareFlowLP(t, opts)

	m := lp.NewModel()
	p.addFlowVars(m)
	p.wVar = m.AddVar(0, "w") // unused placeholder to keep varID layout
	tVars := make([]lp.VarID, len(samples))
	inv := 1 / float64(len(samples))
	for i := range samples {
		tVars[i] = m.AddVar(inv, fmt.Sprintf("t[%d]", i))
	}
	p.addConservation(m, false)
	p.addSymmetry(m)
	if withLocality {
		p.addLocalityRow(m)
	}
	p.model = m
	p.solver = lp.NewSolver(m)
	return &AvgCaseLP{flp: p, samples: samples, tVars: tVars}
}

// SetLocality re-targets the locality row (normalized units).
func (a *AvgCaseLP) SetLocality(hNorm float64) { a.flp.SetLocality(hNorm) }

// Solve runs the cutting-plane loop: each round, every sample whose true
// maximum channel load exceeds its t variable contributes a cut for its
// most-loaded channel.
func (a *AvgCaseLP) Solve() (*Result, error) {
	return a.SolveCtx(context.Background())
}

// SolveCtx is Solve under a cancellation context. The per-sample separation
// (dense channel-load evaluation plus argmax) runs on Options.Workers
// goroutines into per-sample slots; cuts are then added in sample order, so
// the generated LP is identical for every worker count.
//
// Per-round solves retry through the cut log like the worst-case loops, and
// exhausted budgets degrade to the best sampled iterate; Options.Checkpoint
// is ignored because matrix cuts carry dense patterns that do not serialize.
func (a *AvgCaseLP) SolveCtx(ctx context.Context) (*Result, error) {
	p := a.flp
	tol := p.opts.tol()
	res := &Result{}
	worstCs := make([]int, len(a.samples))
	worsts := make([]float64, len(a.samples))
	var bestFlow *eval.Flow
	var bestObj, bestMean float64
	for round := 0; round < p.opts.rounds(); round++ {
		res.Rounds = round
		if err := ctx.Err(); err != nil {
			if errors.Is(err, context.Canceled) {
				return nil, err
			}
			return a.degradeAvg(res, bestFlow, bestObj, err)
		}
		sol, err := p.solveRound(ctx)
		if err != nil {
			return nil, err
		}
		if sol.Status == lp.IterLimit {
			if err := ctx.Err(); errors.Is(err, context.Canceled) {
				return nil, err
			}
			return a.degradeAvg(res, bestFlow, bestObj,
				fmt.Errorf("simplex budget exhausted at round %d (%s)", round, sol.Diag.Summary()))
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("design: avg-case LP status %v at round %d", sol.Status, round)
		}
		res.Rounds = round + 1
		res.Iterations += sol.Iterations
		res.Refactorizations += sol.Diag.Refactorizations
		flow := p.unfold(sol.X)
		err = p.separate(ctx, func() error {
			return par.Do(ctx, len(a.samples), p.opts.Workers, func(i int) error {
				if err := oracleFault(); err != nil {
					return err
				}
				loads := flow.ChannelLoads(a.samples[i])
				worstC, worst := 0, 0.0
				for c, l := range loads {
					if l > worst {
						worst, worstC = l, c
					}
				}
				worstCs[i], worsts[i] = worstC, worst
				return nil
			})
		})
		if err != nil {
			return nil, err
		}
		// The sampled mean of the exact per-sample maxima is the true
		// objective value of this iterate; track the best for degradation.
		mean := 0.0
		for _, w := range worsts {
			mean += w
		}
		mean /= float64(len(a.samples))
		if bestFlow == nil || mean < bestMean {
			bestFlow, bestObj, bestMean = flow, mean, mean
		}
		violated := false
		for i, lam := range a.samples {
			if worsts[i] > sol.X[a.tVars[i]]+tol {
				p.matrixCut(topo.Channel(worstCs[i]), lam, a.tVars[i])
				violated = true
			}
		}
		if !violated {
			res.Flow = flow
			res.Objective = sol.Objective
			res.Certified = true
			res.GammaWC, _, err = flow.WorstCaseCtx(ctx, p.opts.Workers)
			if err != nil {
				return nil, err
			}
			res.HAvg = flow.HAvg()
			res.HNorm = flow.HNorm()
			return res, nil
		}
	}
	res.Rounds = p.opts.rounds()
	return a.degradeAvg(res, bestFlow, bestObj,
		fmt.Errorf("avg-case cutting planes did not converge in %d rounds", p.opts.rounds()))
}

// degradeAvg is the average-case degradation path: the best iterate's exact
// worst case is re-evaluated off the (possibly expired) solve context, since
// unlike the worst-case loops no oracle has computed it along the way.
func (a *AvgCaseLP) degradeAvg(res *Result, flow *eval.Flow, obj float64, cause error) (*Result, error) {
	if flow == nil {
		return degrade(res, nil, 0, 0, cause)
	}
	gw, _, err := flow.WorstCaseCtx(context.Background(), a.flp.opts.Workers)
	if err != nil {
		return nil, err
	}
	return degrade(res, flow, obj, gw, cause)
}

// AvgCaseOptimal minimizes the sampled mean maximum channel load with no
// locality constraint: the maximum average-case throughput point of
// Figure 6 (its reciprocal, normalized by capacity, is the paper's ~62.8%).
func AvgCaseOptimal(t topo.Topology, samples []*traffic.Matrix, opts Options) (*Result, error) {
	return AvgCaseOptimalCtx(context.Background(), t, samples, opts)
}

// AvgCaseOptimalCtx is AvgCaseOptimal under a cancellation context.
func AvgCaseOptimalCtx(ctx context.Context, t topo.Topology, samples []*traffic.Matrix, opts Options) (*Result, error) {
	return NewAvgCaseLP(t, samples, false, opts).SolveCtx(ctx)
}

// AvgCaseAtLocality solves equation (15): best average-case throughput at a
// fixed normalized locality.
func AvgCaseAtLocality(t topo.Topology, samples []*traffic.Matrix, hNorm float64, opts Options) (*Result, error) {
	return AvgCaseAtLocalityCtx(context.Background(), t, samples, hNorm, opts)
}

// AvgCaseAtLocalityCtx is AvgCaseAtLocality under a cancellation context.
func AvgCaseAtLocalityCtx(ctx context.Context, t topo.Topology, samples []*traffic.Matrix, hNorm float64, opts Options) (*Result, error) {
	a := NewAvgCaseLP(t, samples, true, opts)
	a.SetLocality(hNorm)
	return a.SolveCtx(ctx)
}

// AvgCaseParetoCurve sweeps locality for Figure 6's optimal tradeoff curve.
// See AvgCaseParetoCurveCtx for the sweep strategy.
func AvgCaseParetoCurve(t topo.Topology, samples []*traffic.Matrix, hNorms []float64, opts Options) ([]ParetoPoint, error) {
	return AvgCaseParetoCurveCtx(context.Background(), t, samples, hNorms, opts)
}

// AvgCaseParetoCurveCtx sweeps locality under a cancellation context. As
// with WorstCaseParetoCurveCtx, Options.Workers 1 keeps the historical
// single-LP sweep (sample cuts stay valid across L); any other worker count
// solves the points as independent LPs concurrently, ordered by hNorms
// index in the result.
func AvgCaseParetoCurveCtx(ctx context.Context, t topo.Topology, samples []*traffic.Matrix, hNorms []float64, opts Options) ([]ParetoPoint, error) {
	cap := eval.NetworkCapacity(t)
	if par.Workers(opts.Workers) > 1 {
		out := make([]ParetoPoint, len(hNorms))
		err := par.Do(ctx, len(hNorms), opts.Workers, func(i int) error {
			h := hNorms[i]
			popts := opts
			popts.Workers = 1
			res, err := AvgCaseAtLocalityCtx(ctx, t, samples, h, popts)
			if err != nil {
				return fmt.Errorf("L=%v: %w", h, err)
			}
			if !res.Certified {
				return fmt.Errorf("L=%v: %w: %s", h, ErrUncertified, res.Reason)
			}
			out[i] = ParetoPoint{HNorm: h, Theta: (1 / res.Objective) / cap, Gamma: res.Objective}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	a := NewAvgCaseLP(t, samples, true, opts)
	out := make([]ParetoPoint, 0, len(hNorms))
	for _, h := range hNorms {
		a.SetLocality(h)
		res, err := a.SolveCtx(ctx)
		if err != nil {
			return nil, fmt.Errorf("L=%v: %w", h, err)
		}
		if !res.Certified {
			return nil, fmt.Errorf("L=%v: %w: %s", h, ErrUncertified, res.Reason)
		}
		// Objective is the mean max load; its reciprocal approximates the
		// average throughput (equation 9).
		out = append(out, ParetoPoint{HNorm: h, Theta: (1 / res.Objective) / cap, Gamma: res.Objective})
	}
	return out, nil
}
