package lp

import (
	"math"
	"math/rand"
	"testing"
)

// dseModel builds a random LE-form minimization whose all-slack start is
// optimal: nonnegative costs and right-hand sides. Structural columns hold
// at most three entries in [-0.5, 0.5], so every column has norm <= 1; for
// such columns the Forrest–Goldfarb safeguard beta_i >= (alpha_i/alpha_r)^2
// is a true lower bound on ||e_i^T B^-1||^2, and the maintained weights must
// track the exact norms.
func dseModel(rng *rand.Rand) (*Model, []RowID) {
	n := 6 + rng.Intn(8)
	m := 4 + rng.Intn(6)
	model := NewModel()
	vars := make([]VarID, n)
	for j := range vars {
		vars[j] = model.AddVar(0.1+rng.Float64(), "")
	}
	rowTerms := make([][]Term, m)
	for _, v := range vars {
		for _, i := range rng.Perm(m)[:1+rng.Intn(3)] {
			rowTerms[i] = append(rowTerms[i], Term{Var: v, Coef: rng.Float64() - 0.5})
		}
	}
	rows := make([]RowID, m)
	for i := range rows {
		rows[i] = model.AddRow(rowTerms[i], LE, 1+rng.Float64(), "")
	}
	return model, rows
}

// TestDualSteepestEdgeWeights is the property test of the dual pricing
// weights: from the all-slack basis (where the initial weights of 1 are
// exact), after k warm dual pivots every maintained weight beta_r matches
// the exact ||e_r^T B^-1||^2 recomputed by BTRAN — never below it beyond
// rounding, and within 1e-6 relative — on both basis engines.
func TestDualSteepestEdgeWeights(t *testing.T) {
	for _, eng := range []Engine{EngineEta, EngineDense} {
		rng := rand.New(rand.NewSource(4242))
		checked := 0
		for trial := 0; trial < 200; trial++ {
			model, rows := dseModel(rng)
			s := NewSolver(model)
			s.SetEngine(eng)
			if sol, err := s.Solve(); err != nil || sol.Status != Optimal {
				t.Fatalf("%v trial %d: base solve %v %v", eng, trial, sol, err)
			}
			// Push a few rows negative: their slacks go primal infeasible
			// while the basis stays dual feasible.
			for _, r := range rng.Perm(len(rows))[:1+rng.Intn(3)] {
				s.SetRHS(int(rows[r]), -0.2-rng.Float64())
			}
			k := 1 + rng.Intn(6)
			s.MaxIters = k
			s.iterations = 0
			if _, err := s.dualInner(s.dualCosts()); err != nil {
				t.Fatalf("%v trial %d: dual pivots: %v", eng, trial, err)
			}
			if s.iterations == 0 {
				continue // infeasible at the first row: nothing to update
			}
			checked++
			for r := 0; r < s.nRows; r++ {
				var exact float64
				for _, v := range s.btranRow(r) {
					exact += v * v
				}
				beta := s.dseW[r]
				if beta < exact*(1-1e-12) {
					t.Errorf("%v trial %d after %d pivots: beta[%d]=%.17g below exact %.17g",
						eng, trial, s.iterations, r, beta, exact)
				}
				if math.Abs(beta-exact) > 1e-6*exact {
					t.Errorf("%v trial %d after %d pivots: beta[%d]=%.17g, exact %.17g",
						eng, trial, s.iterations, r, beta, exact)
				}
			}
		}
		if checked < 100 {
			t.Fatalf("%v: only %d of 200 trials took a dual pivot", eng, checked)
		}
	}
}

// TestDualStallDetectorResetsOnProgress runs one long warm dual solve — a
// bounded covering LP whose entering variables keep overshooting their
// caps, taking more pivots than the dual stall limit 2m+200 — in which every
// pivot still makes dual progress. The stall detector must not mistake
// length for cycling: no pivot may fall back to Bland's rule.
func TestDualStallDetectorResetsOnProgress(t *testing.T) {
	const m, n = 100, 600
	rng := rand.New(rand.NewSource(1))
	model := NewModel()
	for j := 0; j < n; j++ {
		model.AddVar(0.5+rng.Float64(), "")
	}
	rows := make([]RowID, m)
	for i := range rows {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.05 {
				terms = append(terms, Term{Var: VarID(j), Coef: -(0.5 + rng.Float64())})
			}
		}
		rows[i] = model.AddRow(terms, LE, 0, "")
	}
	for j := 0; j < n; j++ {
		model.SetUpper(VarID(j), 0.25)
	}
	s := NewSolver(model)
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		s.SetRHS(int(r), -1-2*rng.Float64())
	}
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if limit := 2*m + 200; sol.Iterations <= limit {
		t.Fatalf("only %d pivots, not past the stall limit %d: the test proves nothing", sol.Iterations, limit)
	}
	if sol.Diag.BlandPivots != 0 {
		t.Errorf("%d of %d pivots fell back to Bland's rule", sol.Diag.BlandPivots, sol.Iterations)
	}
}
