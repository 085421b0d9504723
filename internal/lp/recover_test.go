package lp

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// randomBoundedLP builds a feasible, bounded LP of the given size from a
// seeded LCG: min -sum(x) subject to nonnegative random rows Ax <= b with
// b > 0, so the origin is feasible and the caps bind at the optimum.
func randomBoundedLP(m, n int, seed uint64) *Model {
	rng := seed*2862933555777941757 + 3037000493
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>11) / (1 << 53)
	}
	mdl := NewModel()
	v0 := mdl.AddVars(n)
	for j := 0; j < n; j++ {
		mdl.SetObj(v0+VarID(j), -1)
	}
	for i := 0; i < m; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if next() < 0.4 {
				terms = append(terms, Term{Var: v0 + VarID(j), Coef: 1 + 4*next()})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: v0, Coef: 1})
		}
		mdl.AddRow(terms, LE, 5+10*next(), "")
	}
	return mdl
}

func TestDiagnosticsCleanSolve(t *testing.T) {
	s := NewSolver(randomBoundedLP(30, 40, 7))
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	d := sol.Diag
	if d.Attempts != 1 {
		t.Errorf("clean solve Attempts = %d, want 1", d.Attempts)
	}
	if len(d.Ladder) != 0 {
		t.Errorf("clean solve climbed the ladder: %v", d.Ladder)
	}
	if d.Refactorizations < 1 {
		t.Errorf("Refactorizations = %d, want >= 1", d.Refactorizations)
	}
	if d.Residual > ladderResidTol {
		t.Errorf("Residual = %g exceeds gate %g", d.Residual, float64(ladderResidTol))
	}
	if d.Iterations != sol.Iterations {
		t.Errorf("Diag.Iterations = %d, Solution.Iterations = %d", d.Iterations, sol.Iterations)
	}
	if d.BudgetExhausted || d.DeadlineHit || d.EngineFallback {
		t.Errorf("clean solve raised failure flags: %+v", d)
	}
	if got := s.LastDiagnostics(); got.Attempts != 1 {
		t.Errorf("LastDiagnostics Attempts = %d", got.Attempts)
	}
	if sum := d.Summary(); !strings.Contains(sum, "attempts=1") {
		t.Errorf("Summary missing attempts: %q", sum)
	}
}

func TestSolveCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the solve must unwind at the first poll
	s := NewSolver(randomBoundedLP(30, 40, 11))
	sol, err := s.SolveCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit {
		t.Fatalf("status = %v, want IterLimit under expired context", sol.Status)
	}
	if !sol.Diag.BudgetExhausted || !sol.Diag.DeadlineHit {
		t.Errorf("diag flags = %+v, want BudgetExhausted and DeadlineHit", sol.Diag)
	}
	// With the context restored, the same solver must finish the job.
	sol, err = s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("post-deadline re-solve status = %v", sol.Status)
	}
}

func TestSolveCtxDeadlineMidSolve(t *testing.T) {
	// A deadline that expires while the simplex is running (not before):
	// the solve must still terminate promptly with IterLimit.
	// A real wall-clock deadline is the point of this test; the clock value
	// only controls when the solve unwinds, never what it computes.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(100*time.Microsecond)) //lint:ignore randsource deadline plumbing under test, not an artifact input
	defer cancel()
	s := NewSolver(randomBoundedLP(120, 160, 13))
	sol, err := s.SolveCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == IterLimit && !sol.Diag.DeadlineHit {
		t.Errorf("IterLimit without DeadlineHit: %+v", sol.Diag)
	}
	// Either outcome (finished in time or cut off) is legal; wrong answers
	// are not.
	if sol.Status == Optimal && sol.Diag.Residual > ladderResidTol {
		t.Errorf("optimal with dirty residual %g", sol.Diag.Residual)
	}
}

func TestDiagErrorWrapsNumerical(t *testing.T) {
	de := &DiagError{Diag: Diagnostics{Attempts: 7}, Err: ErrNumerical}
	if !errors.Is(de, ErrNumerical) {
		t.Fatal("DiagError must unwrap to ErrNumerical")
	}
	if !strings.Contains(de.Error(), "attempts=7") {
		t.Errorf("DiagError message missing diagnostics: %q", de.Error())
	}
	var target *DiagError
	if !errors.As(error(de), &target) {
		t.Fatal("errors.As failed")
	}
}

// TestBasisInstallRoundtrip: a restored solver continues bit for bit,
// including when the replayed construction changed the objective (path LPs
// switch the cost jitter off, a lexicographic stage flips the objective):
// the installed basis is optimal for that objective, so the continuation
// must still dual-warm-start rather than restart cold.
func TestBasisInstallRoundtrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(*Solver)
	}{
		{"plain", func(*Solver) {}},
		{"objective replayed", func(s *Solver) {
			s.SetJitter(false)
			s.SetObjCoef(0, 2)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mdl := randomBoundedLP(25, 35, 17)
			cut := []Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 2}}

			// Reference run: solve, add a cut (the checkpoint moment), then
			// hit the checkpoint barrier and capture the basis state before
			// finishing.
			a := NewSolver(mdl)
			tc.setup(a)
			if _, err := a.Solve(); err != nil {
				t.Fatal(err)
			}
			a.AddCut(cut, LE, 1.5)
			if err := a.RefreshFactors(); err != nil {
				t.Fatal(err)
			}
			basis := a.Basis()
			if basis == nil {
				t.Fatal("no basis after optimal solve")
			}
			cursor := a.PricingCursor()
			want, err := a.Solve()
			if err != nil {
				t.Fatal(err)
			}

			// Restored run: fresh solver, replay the construction and the
			// cut, install the basis. The continuation must be bit-for-bit
			// identical to the reference run's.
			b := NewSolver(mdl)
			tc.setup(b)
			b.AddCut(cut, LE, 1.5)
			if err := b.InstallBasis(basis); err != nil {
				t.Fatal(err)
			}
			b.SetPricingCursor(cursor)
			got, err := b.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if got.Status != want.Status {
				t.Fatalf("restored solve status = %v, want %v", got.Status, want.Status)
			}
			if got.Objective != want.Objective {
				t.Errorf("objective after InstallBasis = %.17g, want %.17g", got.Objective, want.Objective)
			}
			if got.Iterations != want.Iterations {
				t.Errorf("restored solve pivoted %d times, reference %d", got.Iterations, want.Iterations)
			}
			for j := range want.X {
				if got.X[j] != want.X[j] {
					t.Fatalf("X[%d] = %.17g, want %.17g", j, got.X[j], want.X[j])
				}
			}
		})
	}
}

func TestInstallBasisRejectsGarbage(t *testing.T) {
	s := NewSolver(randomBoundedLP(10, 12, 3))
	if err := s.InstallBasis([]int{1, 2}); err == nil {
		t.Error("wrong-length basis accepted")
	}
	if err := s.InstallBasis(make([]int, 10)); err == nil {
		t.Error("duplicate columns accepted")
	}
	bad := make([]int, 10)
	for i := range bad {
		bad[i] = 10000 + i
	}
	if err := s.InstallBasis(bad); err == nil {
		t.Error("out-of-range columns accepted")
	}
}
