package design

import (
	"context"
	"errors"
	"math"
	"time"

	"tcr/internal/lp"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// This file is the design layer's half of the numerical-resilience story.
// Every solver mutation made after construction (permutation cuts, lazy
// pair rows, dense-pattern cuts, locality retargets, the lexicographic
// stage-2 cap and objective flip) is recorded in a structured log; each
// formulation replays an entry in its own variables (FlowLP.apply,
// PathLP.apply). The log serves two masters:
//
//   - retry-with-backoff: when a round's LP solve dies with lp.ErrNumerical
//     even after the solver's own recovery ladder, the design loop rebuilds
//     a fresh solver from the base model and replays the log, discarding
//     whatever internal state went bad;
//   - checkpointing (checkpoint.go): the serializable subset of the log,
//     together with the simplex basis and pricing cursor, is everything
//     needed to resume a killed cut loop bit for bit.

// cut-log entry kinds.
const (
	cutPerm   = "perm"   // permutation load cut on a channel
	cutPair   = "pair"   // lazy matching-dual pair row of a potential block
	cutMatrix = "matrix" // dense-pattern load cut (average-case; not serializable)
	cutCapW   = "capw"   // stage-2 cap on the worst-case load variable
	cutObjLen = "objlen" // stage-2 objective flip to total path length
	cutLoc    = "loc"    // locality row retarget
)

// cutEntry is one replayable solver mutation. The exported fields are the
// JSON checkpoint schema; mat is the in-memory matrix of an average-case
// cut, whose presence makes the log non-serializable (average-case runs
// retry but do not checkpoint).
type cutEntry struct {
	Kind  string  `json:"kind"`
	Ch    int     `json:"ch,omitempty"`    // perm/matrix: channel
	Perm  []int   `json:"perm,omitempty"`  // perm: the permutation
	Bound int     `json:"bound,omitempty"` // perm/matrix: bound variable
	Block int     `json:"block,omitempty"` // pair: potential-block index
	S     int     `json:"s,omitempty"`     // pair: source node
	D     int     `json:"d,omitempty"`     // pair: destination node
	Val   float64 `json:"val,omitempty"`   // capw: bound; loc: hNorm

	mat *traffic.Matrix
}

// apply replays one entry onto the current solver without re-logging it.
func (p *FlowLP) apply(e cutEntry) {
	switch e.Kind {
	case cutPerm:
		p.solver.AddCut(p.PermCutTerms(topo.Channel(e.Ch), e.Perm, lp.VarID(e.Bound)), lp.LE, 0)
	case cutPair:
		b := p.blocks[e.Block]
		p.solver.AddCut(p.pairRowTerms(b, e.S, e.D), lp.LE, 0)
		b.added[e.S*p.n+e.D] = true
	case cutMatrix:
		p.solver.AddCut(p.matrixCutTerms(topo.Channel(e.Ch), e.mat, lp.VarID(e.Bound)), lp.LE, 0)
	case cutCapW:
		// A bound on w, not a row: the cap becomes nonbasic variable state
		// in the solver (bounded simplex), adding nothing to the basis
		// dimension. Replaying a later entry overwrites the earlier bound,
		// which matches the semantics of stacked w <= val rows (the
		// tightest wins) while keeping the basis square.
		p.solver.SetVarUpper(p.wVar, e.Val)
		p.wCap = e.Val
	case cutObjLen:
		for ci, cm := range p.comms {
			for c := 0; c < p.nc; c++ {
				p.solver.SetObjCoef(p.varID(ci, topo.Channel(c)), cm.weight)
			}
		}
		p.solver.SetObjCoef(p.wVar, 0)
	case cutLoc:
		p.solver.SetRHS(int(p.hRow), e.Val*float64(p.n)*p.T.MeanMinDist())
	}
}

// record logs an entry and applies it to the live solver.
func (c *cutLP) record(e cutEntry) {
	c.cutLog = append(c.cutLog, e)
	c.form.apply(e)
}

// serializable reports whether the log can round-trip through a checkpoint
// (average-case matrix cuts carry dense patterns and cannot).
func (c *cutLP) serializable() bool {
	for _, e := range c.cutLog {
		if e.Kind == cutMatrix {
			return false
		}
	}
	return true
}

// rebuildSolver discards the current solver and reconstructs an equivalent
// one from the base model plus the cut log, resetting the state the log
// derives (the stage-2 cap, the pair rows present). Used after a numerical
// failure (fresh internal state) and when restoring a checkpoint.
func (c *cutLP) rebuildSolver() {
	c.solver = lp.NewSolver(c.baseModel())
	if c.noJitter {
		c.solver.SetJitter(false)
	}
	c.wCap = math.NaN()
	for _, b := range c.blocks {
		clear(b.added)
	}
	for _, e := range c.cutLog {
		c.form.apply(e)
	}
}

// retryBackoffBase is the first retry's delay; each further attempt doubles
// it. The pause exists to let transient pressure (memory, CPU contention
// skewing timings) clear before the rebuilt solver tries again.
const retryBackoffBase = 5 * time.Millisecond

// sleepBackoff waits out the attempt-th backoff, honoring cancellation.
func sleepBackoff(ctx context.Context, attempt int) error {
	t := time.NewTimer(retryBackoffBase << attempt)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// solveRound runs one cutting-plane round's LP solve with the design
// layer's retry policy: a solve that fails with lp.ErrNumerical — meaning
// the solver's internal recovery ladder is already exhausted — is retried
// up to Options.Retries times after an exponential backoff, each time on a
// freshly rebuilt solver with the cut log replayed. Any other error class
// is returned as is.
func (c *cutLP) solveRound(ctx context.Context) (*lp.Solution, error) {
	var lastErr error
	for attempt := 0; attempt <= c.opts.retries(); attempt++ {
		if attempt > 0 {
			if err := sleepBackoff(ctx, attempt-1); err != nil {
				return nil, err
			}
			c.rebuildSolver()
		}
		sol, err := c.solver.SolveCtx(ctx)
		if err == nil {
			if c.opts.onSolve != nil {
				c.opts.onSolve(sol.Diag)
			}
			return sol, nil
		}
		if !errors.Is(err, lp.ErrNumerical) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// oracle runs a cutting-plane round's separation oracles with the same
// retry policy: oracle failures are retried after a backoff, since the
// oracle is stateless. Context errors abort immediately.
func (c *cutLP) oracle(ctx context.Context, f func() error) error {
	var lastErr error
	for attempt := 0; attempt <= c.opts.retries(); attempt++ {
		if attempt > 0 {
			if err := sleepBackoff(ctx, attempt-1); err != nil {
				return err
			}
		}
		err := f()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
		lastErr = err
	}
	return lastErr
}
