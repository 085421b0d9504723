package design

import (
	"context"
	"errors"
	"fmt"
	"math"

	"tcr/internal/eval"
	"tcr/internal/lp"
	"tcr/internal/matching"
	"tcr/internal/par"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// This file is the one cutting-plane driver every design LP runs on. The
// worst-case LP (8), the pure permutation-cut LP, the average-case LP (15),
// the capacity LP (6) and the 2TURN/2TURNA path LPs are all relaxations that
// an exact oracle either certifies or cuts, so the round loop is shared:
// solve (with the retry ladder), separate, track the best iterate, certify
// or checkpoint, and degrade when a budget runs out. A formulation supplies
// only its separation step and how its cut-log entries replay onto a solver.

// formulation is what a design LP plugs into the driver.
type formulation interface {
	// apply replays one cut-log entry onto the live solver without logging
	// it (cutlog.go).
	apply(e cutEntry)
	// sig fingerprints the formulation for checkpoint matching
	// (checkpoint.go).
	sig() string
	// separate maps a round's LP solution to a flow, evaluates it exactly,
	// and either certifies it or records the cuts it violates.
	separate(ctx context.Context, sol *lp.Solution) (verdict, error)
}

// verdict is one round's separation outcome.
type verdict struct {
	flow *eval.Flow
	// exact is the flow's exact objective (worst-case load or sampled mean
	// maximum load): the key the driver tracks the best iterate by.
	exact float64
	// obj is the Objective a degraded result reports for this iterate, and
	// gammaWC the flow's exact worst-case load, NaN when the oracle did not
	// compute it.
	obj, gammaWC float64
	certified    bool
}

// cutLP is the state every design LP shares: the warm solver, the base model
// it is rebuilt from, the cut log of every mutation since, and the handles
// the shared cut kinds refer to.
type cutLP struct {
	form formulation

	// model is the base LP the solver was built from. When newModel can
	// rebuild it, the driver drops it once its restores are done, since it
	// duplicates the solver's own matrix (0.1-0.2 MB on the larger design
	// LPs); baseModel rebuilds it for the rare retry that needs it again.
	model    *lp.Model
	newModel func() *lp.Model
	solver   *lp.Solver
	// noJitter rebuilds the solver with the anti-degeneracy cost jitter off.
	noJitter bool

	n    int      // node count
	wVar lp.VarID // the max-load variable
	hRow lp.RowID // locality budget row, -1 when absent
	hasH bool
	// seps are the worst-case oracle's representative channels; blocks, when
	// the LP carries matching-dual potentials, holds one block per sep.
	seps   []topo.Channel
	blocks []*potBlock

	// cutLog records every post-construction solver mutation for replay
	// (retry rebuilds and checkpoint restores; see cutlog.go).
	cutLog []cutEntry
	// ckptStage distinguishes the lexicographic designs' stages in the
	// checkpoint signature; locNorm is the current locality target; wCap is
	// the stage-2 cap on w the log has applied, NaN while w is free.
	ckptStage int
	locNorm   float64
	wCap      float64
	// x is the LP point of the iterate the last solve returned.
	x []float64

	opts Options
}

// baseModel returns the base LP model, rebuilding it if the driver has
// dropped it.
func (c *cutLP) baseModel() *lp.Model {
	if c.model == nil {
		return c.newModel()
	}
	return c.model
}

// SetLocality re-targets the locality row at normalized average path length
// hNorm (1 = minimal, 2 = twice minimal).
func (c *cutLP) SetLocality(hNorm float64) {
	if !c.hasH {
		//lint:ignore libpanic caller bug, not a data condition: every in-package caller builds the LP with a locality row
		panic("design: SetLocality on an LP built without a locality row")
	}
	c.locNorm = hNorm
	c.record(cutEntry{Kind: cutLoc, Val: hNorm})
}

// solve runs the cutting-plane loop on the current LP state until the
// formulation's oracle certifies the LP bound. Each round's solve goes
// through the retry ladder (cutlog.go), the loop checkpoints its state per
// Options.Checkpoint, and exhausted budgets (rounds, simplex pivots,
// deadline) degrade to the best iterate seen rather than failing. A
// canceled context is an error. On return c.x holds the LP point of the
// returned iterate.
func (c *cutLP) solve(ctx context.Context) (*Result, error) {
	c.x = nil
	res := &Result{}
	startRound, cumIters := 0, 0
	if r, it, ok := c.restore(c.opts.Checkpoint, false); ok {
		startRound, cumIters = r, it
	} else {
		c.restore(c.opts.WarmFrom, true)
	}
	// From here only a retry rebuilds the solver, and it can rebuild the
	// base model too: keeping it would hold a second copy of the matrix
	// through every round.
	if c.newModel != nil {
		c.model = nil
	}
	// The best iterate so far — the one with the smallest exact objective —
	// backs graceful degradation.
	var best verdict
	var bestX []float64
	for round := startRound; round < c.opts.rounds(); round++ {
		res.Rounds, res.Iterations = round, cumIters
		if err := ctx.Err(); err != nil {
			return c.fail(ctx, res, best, bestX, err)
		}
		sol, err := c.solveRound(ctx)
		if err != nil {
			return c.fail(ctx, res, best, bestX, err)
		}
		if sol.Status == lp.IterLimit {
			if err := ctx.Err(); errors.Is(err, context.Canceled) {
				return nil, err
			}
			return c.degrade(res, best, bestX,
				fmt.Errorf("simplex budget exhausted at round %d (%s)", round, sol.Diag.Summary()))
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("design: LP status %v at round %d", sol.Status, round)
		}
		cumIters += sol.Iterations
		res.Refactorizations += sol.Diag.Refactorizations
		res.Rounds, res.Iterations = round+1, cumIters
		v, err := c.form.separate(ctx, sol)
		if err != nil {
			return c.fail(ctx, res, best, bestX, err)
		}
		if best.flow == nil || v.exact < best.exact {
			best, bestX = v, sol.X
		}
		if v.certified {
			res.Flow = v.flow
			res.Objective = sol.Objective
			res.Certified = true
			res.GammaWC, _, err = v.flow.WorstCaseCtx(ctx, c.opts.Workers)
			if err != nil {
				return c.fail(ctx, res, best, bestX, err)
			}
			res.HAvg = v.flow.HAvg()
			res.HNorm = v.flow.HNorm()
			if err := c.writeSnapshot(c.opts.FinalSnapshot, res.Rounds, res.Iterations); err != nil {
				return nil, err
			}
			if err := c.clearCheckpoint(); err != nil {
				return nil, err
			}
			c.x = sol.X
			return res, nil
		}
		if (round+1)%c.opts.ckptEvery() == 0 {
			if err := c.writeSnapshot(c.opts.Checkpoint, round+1, cumIters); err != nil {
				return nil, err
			}
		}
	}
	res.Rounds, res.Iterations = c.opts.rounds(), cumIters
	return c.degrade(res, best, bestX,
		fmt.Errorf("cutting planes did not converge in %d rounds", c.opts.rounds()))
}

// fail ends a solve on err. When the context's deadline has expired under
// it — at a round boundary, in a retry backoff, in the oracle or in the
// certification pass — the run degrades like any other exhausted budget;
// anything else, cancellation included, is an error.
func (c *cutLP) fail(ctx context.Context, res *Result, best verdict, x []float64, err error) (*Result, error) {
	if ctxErr := ctx.Err(); errors.Is(ctxErr, context.DeadlineExceeded) {
		return c.degrade(res, best, x, ctxErr)
	}
	return nil, err
}

// degrade packages the best iterate seen so far as an uncertified Result
// when a budget runs out. With no feasible iterate to fall back on, the
// cause surfaces as an error wrapping ErrUncertified. Any checkpoint is left
// in place so the run can be resumed with a larger budget. A worst-case
// load the oracle did not compute is evaluated off the (possibly expired)
// solve context.
func (c *cutLP) degrade(res *Result, best verdict, x []float64, cause error) (*Result, error) {
	if best.flow == nil {
		return nil, fmt.Errorf("%w: %v", ErrUncertified, cause)
	}
	gw := best.gammaWC
	if math.IsNaN(gw) {
		var err error
		if gw, _, err = best.flow.WorstCaseCtx(context.Background(), c.opts.Workers); err != nil {
			return nil, err
		}
	}
	res.Flow = best.flow
	res.Objective = best.obj
	res.GammaWC = gw
	res.HAvg = best.flow.HAvg()
	res.HNorm = best.flow.HNorm()
	res.Certified = false
	res.Reason = cause.Error()
	c.x = x
	return res, nil
}

// rowPolicy is a worst-case formulation's cut selection for the
// representatives whose worst permutation exceeds the LP bound.
type rowPolicy struct {
	// worstOnly feeds only the most violated representative.
	worstOnly bool
	// rows caps the lazy pair rows added per fed block (0: none).
	rows int
	// permCut adds one aggregate permutation cut per fed representative.
	permCut bool
}

// separateWorst is the worst-case separation step: the exact worst
// permutation per representative channel (a Hungarian matching on its
// pair-load matrix), certified against the LP bound — the stage-2 cap when
// the log has set one, the w variable otherwise — or cut per pol.
//
// The per-representative oracles are independent and run on
// Options.Workers goroutines into per-representative slots; cuts are then
// recorded in representative order, so the generated LP — and hence the
// solve trajectory — is identical for every worker count.
func (c *cutLP) separateWorst(ctx context.Context, sol *lp.Solution, flow *eval.Flow, pol rowPolicy) (verdict, error) {
	tol := c.opts.tol()
	loads := make([][][]float64, len(c.seps))
	perms := make([][]int, len(c.seps))
	gammas := make([]float64, len(c.seps))
	err := c.oracle(ctx, func() error {
		return par.Do(ctx, len(c.seps), c.opts.Workers, func(i int) error {
			if err := oracleFault(); err != nil {
				return err
			}
			loads[i] = pairLoadMatrix(flow, c.seps[i])
			perm, g, err := matching.MaxWeightAssignment(loads[i])
			if err != nil {
				return err
			}
			perms[i], gammas[i] = perm, g
			return nil
		})
	})
	if err != nil {
		return verdict{}, err
	}
	gw := gammas[0]
	for _, g := range gammas[1:] {
		gw = math.Max(gw, g)
	}
	v := verdict{flow: flow, exact: gw, obj: sol.Objective, gammaWC: gw}
	bound := c.wCap
	if math.IsNaN(bound) {
		bound = sol.X[c.wVar]
	}
	limit := bound + tol*math.Max(1, bound)
	var fed []int
	for i, g := range gammas {
		switch {
		case !(g > limit):
		case !pol.worstOnly || len(fed) == 0:
			fed = append(fed, i)
		case g > gammas[fed[0]]:
			fed[0] = i // the first of equally violated representatives wins
		}
	}
	if len(fed) == 0 {
		v.certified = true
		return v, nil
	}
	cut := false
	for _, i := range fed {
		if pol.permCut {
			c.record(cutEntry{Kind: cutPerm, Ch: int(c.seps[i]), Perm: append([]int(nil), perms[i]...), Bound: int(c.wVar)})
			cut = true
		}
		if pol.rows == 0 {
			continue
		}
		b := c.blocks[i]
		for j, idx := range violatedPairs(c.n, b, sol.X, loads[i], tol) {
			if j >= pol.rows {
				break
			}
			c.record(cutEntry{Kind: cutPair, Block: b.idx, S: idx / c.n, D: idx % c.n})
			cut = true
		}
	}
	if !cut {
		return verdict{}, errors.New("design: oracle violated but no cuts to add (numerical trouble)")
	}
	return v, nil
}

// separateSamples is the average-case separation step: each sample's exact
// maximum channel load, certified against its t variable or cut with one
// dense-pattern cut on its most-loaded channel. The sampled mean of the
// exact maxima is the iterate's true objective. The per-sample evaluations
// run on Options.Workers goroutines into per-sample slots; cuts are recorded
// in sample order, so the generated LP is identical for every worker count.
func (c *cutLP) separateSamples(ctx context.Context, sol *lp.Solution, flow *eval.Flow, samples []*traffic.Matrix, tVars []lp.VarID) (verdict, error) {
	tol := c.opts.tol()
	worstCs := make([]int, len(samples))
	worsts := make([]float64, len(samples))
	err := c.oracle(ctx, func() error {
		return par.Do(ctx, len(samples), c.opts.Workers, func(i int) error {
			if err := oracleFault(); err != nil {
				return err
			}
			loads := flow.ChannelLoads(samples[i])
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
		return verdict{}, err
	}
	mean := 0.0
	for _, w := range worsts {
		mean += w
	}
	mean /= float64(len(samples))
	v := verdict{flow: flow, exact: mean, obj: mean, gammaWC: math.NaN(), certified: true}
	for i, lam := range samples {
		if worsts[i] > sol.X[tVars[i]]+tol {
			c.record(cutEntry{Kind: cutMatrix, Ch: worstCs[i], Bound: int(tVars[i]), mat: lam})
			v.certified = false
		}
	}
	return v, nil
}

// lexicographic runs a two-stage design: first optimizes the load, and
// second, given the certified first-stage result, caps the load and
// minimizes path length. Without a certified first stage there is no sound
// cap, so an uncertified first stage is returned as is instead of
// minimizing locality against a bound that may be wrong. Both stages'
// rounds and work are reported, and an uncertified reason names its stage.
func lexicographic(first func() (*Result, error), second func(stage1 *Result) (*Result, error)) (*Result, error) {
	stage1, err := first()
	if err != nil {
		return nil, err
	}
	if !stage1.Certified {
		stage1.Reason = "stage 1: " + stage1.Reason
		return stage1, nil
	}
	res, err := second(stage1)
	if err != nil {
		return nil, fmt.Errorf("design: stage 2: %w", err)
	}
	res.Rounds += stage1.Rounds
	res.Iterations += stage1.Iterations
	res.Refactorizations += stage1.Refactorizations
	if !res.Certified {
		res.Reason = "stage 2: " + res.Reason
	}
	return res, nil
}
