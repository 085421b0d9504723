package design

import (
	"context"
	"fmt"

	"tcr/internal/lp"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// Capacity solves equation (6): minimize the maximum channel load under
// uniform traffic. On the torus the optimum is known in closed form (the
// congestion bound gamma_max = MeanMinDist/4, attained by balanced minimal
// routing), so this LP mainly serves as an end-to-end check of the flow
// machinery and as the capacity normalizer for arbitrary experiments.
// Per-channel constraints are generated lazily, exactly like the
// average-case problem with the single uniform "sample".
func Capacity(t topo.Topology, opts Options) (*Result, error) {
	p := NewFlowLP(t, false, opts)
	u := traffic.Uniform(t.Nodes())
	tol := opts.tol()
	res := &Result{}
	for round := 0; round < opts.rounds(); round++ {
		sol, err := p.solveRound(context.Background())
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("design: capacity LP status %v", sol.Status)
		}
		res.Rounds = round + 1
		res.Iterations += sol.Iterations
		res.Refactorizations += sol.Diag.Refactorizations
		flow := p.unfold(sol.X)
		loads := flow.ChannelLoads(u)
		worstC, worst := 0, 0.0
		for c, l := range loads {
			if l > worst {
				worst, worstC = l, c
			}
		}
		if worst <= sol.X[p.wVar]+tol {
			res.Flow = flow
			res.Objective = sol.Objective
			res.GammaWC, _ = flow.WorstCase()
			res.HAvg = flow.HAvg()
			res.HNorm = flow.HNorm()
			return res, nil
		}
		p.matrixCut(topo.Channel(worstC), u, p.wVar)
	}
	return nil, fmt.Errorf("design: capacity LP did not converge in %d rounds", opts.rounds())
}

// NetworkCapacityLP returns the LP-computed network capacity (throughput
// under uniform traffic at the optimal routing), which must agree with the
// closed-form eval.NetworkCapacity on tori.
func NetworkCapacityLP(t topo.Topology, opts Options) (float64, error) {
	res, err := Capacity(t, opts)
	if err != nil {
		return 0, err
	}
	return 1 / res.Objective, nil
}
