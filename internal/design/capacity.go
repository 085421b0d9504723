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
// Per-channel constraints are generated lazily: it is the average-case
// problem on the single uniform "sample", with w as that sample's bound.
func Capacity(t topo.Topology, opts Options) (*Result, error) {
	p := NewFlowLP(t, false, opts)
	return newAvgCase(p, []*traffic.Matrix{traffic.Uniform(t.Nodes())}, []lp.VarID{p.wVar}).SolveCtx(context.Background())
}

// NetworkCapacityLP returns the LP-computed network capacity (throughput
// under uniform traffic at the optimal routing), which must agree with the
// closed-form eval.NetworkCapacity on tori.
func NetworkCapacityLP(t topo.Topology, opts Options) (float64, error) {
	res, err := Capacity(t, opts)
	if err != nil {
		return 0, err
	}
	if !res.Certified {
		return 0, fmt.Errorf("design: capacity: %w: %s", ErrUncertified, res.Reason)
	}
	return 1 / res.Objective, nil
}
