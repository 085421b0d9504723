package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"
)

// The recovery ladder. Solve/SolveCtx wrap the simplex dispatch in a
// deterministic escalation sequence: when an attempt ends in a numerical
// failure (ErrNumerical from the engines, or an "optimal" basis whose
// residual fails the exit gate), one rung is applied and the solve is
// retried. The rungs escalate from cheap accuracy restoration to full
// restarts:
//
//	refactorize -> re-price -> escalate perturbation -> Bland's rule ->
//	dense-engine fallback -> cold restart
//
// The first attempt applies no rung at all, so a clean solve follows exactly
// the pre-ladder code path (bit-for-bit identical results). Infeasible and
// Unbounded are certificates, not failures, and never escalate; IterLimit is
// a budget outcome and is reported as such in the Diagnostics.
const (
	// ladderResidTol is the exit accuracy gate on ||A_B xB - b||_inf for an
	// Optimal outcome. It is a generous multiple of residCheck (the
	// in-flight refresh trigger), so a solve that converged normally never
	// trips it.
	ladderResidTol = 1e-6
	// ladderPerturbScale multiplies the cost jitter and the anti-cycling
	// basic-value perturbation at the escalate-perturbation rung.
	ladderPerturbScale = 1e3
)

// Ladder rungs, in escalation order.
const (
	rungRefactorize = iota
	rungReprice
	rungPerturb
	rungBland
	rungEngineFallback
	rungColdRestart
	numRungs
)

// rungName returns the rung's Diagnostics label.
func rungName(r int) string {
	switch r {
	case rungRefactorize:
		return "refactorize"
	case rungReprice:
		return "reprice"
	case rungPerturb:
		return "perturb"
	case rungBland:
		return "bland"
	case rungEngineFallback:
		return "engine-dense"
	case rungColdRestart:
		return "cold-restart"
	}
	return fmt.Sprintf("rung(%d)", r)
}

// Solve finds an optimal basic solution, warm-starting when possible.
func (s *Solver) Solve() (*Solution, error) {
	return s.SolveCtx(context.Background())
}

// SolveCtx is Solve with the context's deadline honored as a first-class
// budget: when the context expires mid-solve, the simplex unwinds at the
// next checkpoint and the solution reports IterLimit with DeadlineHit set in
// its Diagnostics. Numerical failures climb the recovery ladder; if the
// ladder is exhausted the error is a *DiagError wrapping ErrNumerical.
func (s *Solver) SolveCtx(ctx context.Context) (*Solution, error) {
	if s.err != nil {
		return nil, s.err
	}
	// The wall clock here feeds only Diagnostics.Elapsed, an observability
	// field that is never part of a solution, fingerprint, or checkpoint;
	// the solve itself stays bit-for-bit deterministic.
	start := time.Now() //lint:ignore randsource elapsed-time diagnostics only, never reaches an artifact
	s.ctx = ctx
	s.diag = Diagnostics{}
	s.forceBland = false
	if s.perturbScale > 1 {
		// A previous solve escalated the perturbation; restore the stock
		// jitter so this solve starts from the normal numerics.
		s.perturbScale = 0
		s.buildCostP()
	}
	s.iterations = 0
	sol, err := s.solveLadder()
	s.ctx = nil
	s.diag.Iterations = s.iterations
	s.diag.Elapsed = time.Since(start) //lint:ignore randsource elapsed-time diagnostics only, never reaches an artifact
	if err != nil {
		if errors.Is(err, ErrNumerical) {
			return nil, &DiagError{Diag: s.diag, Err: err}
		}
		return nil, err
	}
	sol.Diag = s.diag
	return sol, nil
}

// LastDiagnostics returns the Diagnostics of the most recent Solve/SolveCtx
// call, including failed ones (where no Solution was returned).
func (s *Solver) LastDiagnostics() Diagnostics { return s.diag }

// solveLadder runs solve attempts, climbing one rung per numerical failure.
func (s *Solver) solveLadder() (*Solution, error) {
	rung := 0
	for {
		s.diag.Attempts++
		st, err := s.solveAttempt()
		if err == nil && st != IterLimit {
			if gateErr := s.exitGate(st); gateErr == nil {
				return s.finish(st), nil
			} else {
				err = gateErr
			}
		}
		if err == nil {
			// Infeasible/Unbounded are certificates in their own right;
			// IterLimit means the pivot or deadline budget ran out, which
			// retrying cannot fix.
			if st == IterLimit {
				s.diag.BudgetExhausted = true
			}
			return s.finish(st), nil
		}
		if !errors.Is(err, ErrNumerical) {
			return nil, err
		}
		if s.budgetUp() || rung >= numRungs {
			// Deadline expired, or every rung has been tried: give up and
			// report the failure with the accumulated diagnostics.
			return nil, err
		}
		s.applyRung(rung)
		s.diag.Ladder = append(s.diag.Ladder, rungName(rung))
		rung++
	}
}

// exitGate verifies a certificate before the ladder accepts it. Every
// terminal status except IterLimit rests on an accurate basis: Optimal on
// the returned vertex, Infeasible on the phase-1 optimum whose artificial
// mass is the evidence, and Unbounded on the feasible point the ray departs
// from. The checks probe the claimed state against the true constraint
// columns, independently of the (possibly drifted) inverse representation:
//
//   - residual ||A_B xB - b||_inf, for every status;
//   - primal feasibility xB >= 0 plus zero basic-artificial mass, for
//     Optimal and Unbounded (for an Infeasible claim, a negative basic
//     value or positive artificial mass IS the evidence);
//   - dual consistency (y A_B = c_B) and dual feasibility (no nonbasic
//     column prices out), for Optimal — a corrupted representation can
//     otherwise vouch for a suboptimal vertex.
//
// All tolerances are generous multiples of the in-flight ones, so a solve
// that converged normally never trips the gate.
func (s *Solver) exitGate(st Status) error {
	r := s.residual()
	if r > ladderResidTol {
		return fmt.Errorf("%w: %v basis residual %.3g exceeds %.3g",
			ErrNumerical, st, r, float64(ladderResidTol))
	}
	s.diag.Residual = r
	if st == Infeasible {
		return nil
	}
	var infeas float64
	for _, v := range s.xB {
		if -v > infeas {
			infeas = -v
		}
	}
	for rr, col := range s.basis {
		if s.kind[col] == kindArtificial {
			// A residual-accurate basis can still hide a feasibility lie: a
			// basic artificial at nonzero value absorbs a constraint
			// violation the model never sees.
			if a := math.Abs(s.xB[rr]); a > infeas {
				infeas = a
			}
		}
	}
	if s.hasBounds {
		for rr, col := range s.basis {
			// A basic value above its variable's upper bound is the bounded
			// counterpart of a negative basic value.
			if over := s.xB[rr] - s.ub[col]; over > infeas {
				infeas = over
			}
		}
	}
	if infeas > ladderResidTol {
		return fmt.Errorf("%w: %v basis primal infeasibility %.3g exceeds %.3g",
			ErrNumerical, st, infeas, float64(ladderResidTol))
	}
	if st != Optimal {
		return nil
	}
	y := s.computeY(s.costP)
	for _, col := range s.basis {
		d := s.costP[col] - s.dotCol(y, col)
		if math.Abs(d) > ladderResidTol*(1+math.Abs(s.costP[col])) {
			return fmt.Errorf("%w: dual vector inconsistent with basis (|c_B - y A_B| = %.3g)",
				ErrNumerical, math.Abs(d))
		}
	}
	for j := range s.costP {
		if s.pos[j] >= 0 || s.barred[j] {
			continue
		}
		d := s.reducedCost(s.costP, y, j)
		if s.hasBounds && s.atUpper[j] {
			// A nonbasic-at-upper column prices out with a positive reduced
			// cost: pushing it down from its bound would improve.
			if d > 2*dualTol {
				return fmt.Errorf("%w: optimal claim with column %d priced out at upper bound (reduced cost %.3g)",
					ErrNumerical, j, d)
			}
			continue
		}
		if d < -2*dualTol {
			return fmt.Errorf("%w: optimal claim with column %d priced out (reduced cost %.3g)",
				ErrNumerical, j, d)
		}
	}
	return nil
}

// applyRung mutates the solver state for one escalation step. Each rung is
// strictly more disruptive than the last; all of them preserve the problem
// being solved (the perturbation rung only scales the anti-degeneracy
// jitter, whose effect on the reported objective stays within tolerances).
func (s *Solver) applyRung(rung int) {
	switch rung {
	case rungRefactorize:
		if s.haveBasis {
			if err := s.refresh(); err != nil {
				// The basis cannot even be refactorized; drop it so the
				// next attempt cold-starts from the all-logical basis.
				s.haveBasis = false
				s.factorOK = false
			}
		}
	case rungReprice:
		// Throw away the Devex candidate list and rotate the pricing cursor
		// back to the start; the next pricing pass rebuilds from scratch.
		// The dual steepest-edge weights restart from 1 as well.
		s.cand = s.cand[:0]
		s.candCursor = 0
		for j := range s.devexW {
			s.devexW[j] = 1
		}
		for r := range s.dseW {
			s.dseW[r] = 1
		}
	case rungPerturb:
		s.perturbScale = ladderPerturbScale
		s.buildCostP()
	case rungBland:
		s.forceBland = true
	case rungEngineFallback:
		if s.engine == EngineEta {
			s.SetEngine(EngineDense)
			s.diag.EngineFallback = true
		}
	case rungColdRestart:
		s.haveBasis = false
		s.factorOK = false
		s.solvedOnce = false
	}
}

// finish commits a terminal status: clears the dirty flags, records the
// warm-start state, and extracts the solution. When the ladder fired, the
// dual gap is measured as extra evidence of solution quality (clean solves
// skip the full-column scan).
func (s *Solver) finish(st Status) *Solution {
	s.dirtyObj = false
	s.dirtyRows = false
	s.lastStatus = st
	s.solvedOnce = true
	if st == Optimal && s.diag.Attempts > 1 {
		s.diag.DualGap = s.dualInfeas()
	}
	return s.extract(st)
}

// dualInfeas returns the worst reduced-cost violation over nonbasic columns,
// measured against the true (unjittered) costs. Values around the jitter
// magnitude are normal: the simplex optimizes the perturbed costs.
func (s *Solver) dualInfeas() float64 {
	y := s.computeY(s.cost)
	var worst float64
	for j := range s.cost {
		if s.pos[j] >= 0 || s.barred[j] {
			continue
		}
		d := s.reducedCost(s.cost, y, j)
		if s.hasBounds && s.atUpper[j] {
			d = -d
		}
		if -d > worst {
			worst = -d
		}
	}
	return worst
}

// budgetUp reports whether the running solve's context has expired (deadline
// or cancellation), recording the hit in the diagnostics. The simplex inner
// loops poll it periodically, making the context deadline a first-class
// iteration budget.
func (s *Solver) budgetUp() bool {
	if s.ctx == nil {
		return false
	}
	if s.ctx.Err() != nil {
		s.diag.DeadlineHit = true
		return true
	}
	return false
}

// RefreshFactors refactorizes the current basis and recomputes the basic
// values from fresh factors. It is the checkpoint barrier: a live solver
// that calls it immediately before Basis proceeds from exactly the numerical
// state InstallBasis reconstructs, which is what makes checkpoint/resume
// bit-for-bit. A solver with no basis is left untouched.
func (s *Solver) RefreshFactors() error {
	if !s.haveBasis {
		return nil
	}
	if err := s.refresh(); err != nil {
		return err
	}
	s.xbStale = false
	return nil
}

// PricingCursor returns the rotating partial-pricing cursor, the one piece
// of pricing state that survives across Solve calls. Checkpoints persist it
// so a restored solver prices columns in the same order as the original.
func (s *Solver) PricingCursor() int { return s.candCursor }

// SetPricingCursor restores a cursor captured by PricingCursor.
func (s *Solver) SetPricingCursor(c int) {
	if c < 0 {
		c = 0
	}
	s.candCursor = c
}

// Basis returns the current basic column set (one internal column index per
// row), or nil when no basis exists. Column indices refer to the solver's
// internal column space — structurals first, then each row's logical and
// artificial columns in row-construction order — which is deterministic
// given the construction sequence. Together with InstallBasis this is the
// basis half of the design layer's cut-loop checkpoints.
func (s *Solver) Basis() []int {
	if !s.haveBasis {
		return nil
	}
	out := make([]int, len(s.basis))
	copy(out, s.basis)
	return out
}

// InstallBasis restores a basis captured by Basis onto a solver rebuilt
// through the identical construction sequence (same model, same AddCut
// replay). It factorizes the basis, recomputes the basic values, and marks
// the solver warm with rows dirty, so the next Solve dual-warm-starts
// exactly as the original solver would have after its last AddCut.
func (s *Solver) InstallBasis(cols []int) error {
	if s.err != nil {
		return s.err
	}
	if len(cols) != s.nRows {
		return fmt.Errorf("lp: InstallBasis: %d basic columns for %d rows", len(cols), s.nRows)
	}
	if cap(s.pos) < len(s.cost) {
		s.pos = make([]int, len(s.cost))
	}
	s.pos = s.pos[:len(s.cost)]
	for j := range s.pos {
		s.pos[j] = -1
	}
	s.basis = append(s.basis[:0], cols...)
	for r, col := range cols {
		if col < 0 || col >= len(s.cost) {
			return fmt.Errorf("lp: InstallBasis: column %d out of range", col)
		}
		if s.pos[col] >= 0 {
			return fmt.Errorf("lp: InstallBasis: column %d basic in two rows", col)
		}
		s.pos[col] = r
	}
	if s.hasBounds {
		// A basic column cannot sit at its bound; stale at-upper flags (set
		// by SetAtUpperSet from a checkpoint, or left over from a previous
		// basis) would corrupt the recomputed right-hand side.
		for _, col := range cols {
			s.atUpper[col] = false
		}
	}
	if err := s.factorize(); err != nil {
		s.haveBasis = false
		s.factorOK = false
		return err
	}
	if cap(s.xB) < s.nRows {
		s.xB = make([]float64, s.nRows)
	}
	s.xB = s.xB[:s.nRows]
	s.recomputeXB()
	s.xbStale = false
	s.haveBasis = true
	s.solvedOnce = true
	s.lastStatus = Optimal
	s.dirtyRows = true
	return nil
}
