//go:build lpchaos

package lp

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// cleanObjective solves the model without injection on the dense engine —
// the oracle the chaotic runs are judged against.
func cleanObjective(t *testing.T, m *Model) float64 {
	t.Helper()
	s := NewSolver(m)
	s.SetEngine(EngineDense)
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("clean reference status = %v", sol.Status)
	}
	return sol.Objective
}

// TestChaosLadderAllRungs forces six consecutive factorization failures so
// every recovery rung fires, in order, before the seventh attempt succeeds.
func TestChaosLadderAllRungs(t *testing.T) {
	m := randomBoundedLP(30, 40, 7)
	want := cleanObjective(t, m)

	s := NewSolver(m)
	s.SetChaos(&ChaosScript{Seed: 1, FailFactor: numRungs})
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	wantLadder := []string{"refactorize", "reprice", "perturb", "bland", "engine-dense", "cold-restart"}
	if got := strings.Join(sol.Diag.Ladder, ","); got != strings.Join(wantLadder, ",") {
		t.Errorf("ladder = %q, want %q", got, strings.Join(wantLadder, ","))
	}
	if sol.Diag.Attempts != numRungs+1 {
		t.Errorf("attempts = %d, want %d", sol.Diag.Attempts, numRungs+1)
	}
	if !sol.Diag.EngineFallback {
		t.Error("EngineFallback not recorded")
	}
	// The perturbation rung escalated the jitter, so the optimum is only
	// near the clean one, within the amplified-jitter tolerance.
	if math.Abs(sol.Objective-want) > 1e-3*(1+math.Abs(want)) {
		t.Errorf("objective = %g, clean = %g", sol.Objective, want)
	}
	if sol.Diag.Residual > ladderResidTol {
		t.Errorf("residual %g exceeds gate", sol.Diag.Residual)
	}

	// With the ladder exhausted and faults still firing, the solve must
	// give up with a DiagError that unwraps to ErrNumerical.
	s2 := NewSolver(m)
	s2.SetChaos(&ChaosScript{Seed: 1, FailFactor: 100})
	_, err = s2.Solve()
	if err == nil {
		t.Fatal("solve succeeded with every factorization failing")
	}
	if !errors.Is(err, ErrNumerical) {
		t.Fatalf("error %v does not unwrap to ErrNumerical", err)
	}
	var de *DiagError
	if !errors.As(err, &de) {
		t.Fatalf("error %T is not a DiagError", err)
	}
	if de.Diag.Attempts != numRungs+1 {
		t.Errorf("exhausted ladder attempts = %d, want %d", de.Diag.Attempts, numRungs+1)
	}
	if got := s2.LastDiagnostics(); got.Attempts != de.Diag.Attempts {
		t.Errorf("LastDiagnostics disagrees with DiagError: %+v vs %+v", got, de.Diag)
	}
}

// TestChaosEngineFallback fails only sparse factorizations: the ladder must
// walk to the dense engine and finish there.
func TestChaosEngineFallback(t *testing.T) {
	m := randomBoundedLP(25, 30, 11)
	want := cleanObjective(t, m)

	s := NewSolver(m)
	s.SetEngine(EngineEta)
	s.SetChaos(&ChaosScript{Seed: 2, FailFactorEta: 1000})
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !sol.Diag.EngineFallback {
		t.Error("EngineFallback not recorded")
	}
	if s.GetEngine() != EngineDense {
		t.Errorf("engine after fallback = %v", s.GetEngine())
	}
	if math.Abs(sol.Objective-want) > 1e-3*(1+math.Abs(want)) {
		t.Errorf("objective = %g, clean = %g", sol.Objective, want)
	}
}

// TestChaosEtaNoise injects relative noise into every pivot eta: the exit
// residual gate must catch the drifted basis and the ladder must recover to
// a clean optimum.
func TestChaosEtaNoise(t *testing.T) {
	m := randomBoundedLP(30, 40, 13)
	want := cleanObjective(t, m)

	s := NewSolver(m)
	s.SetEngine(EngineEta)
	s.SetChaos(&ChaosScript{Seed: 3, EtaNoise: 1e-2, EtaEvery: 1})
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if len(sol.Diag.Ladder) == 0 {
		t.Error("eta noise did not trip the residual gate; ladder never fired")
	}
	if sol.Diag.Residual > ladderResidTol {
		t.Errorf("residual %g exceeds gate after recovery", sol.Diag.Residual)
	}
	if math.Abs(sol.Objective-want) > 1e-3*(1+math.Abs(want)) {
		t.Errorf("objective = %g, clean = %g", sol.Objective, want)
	}
}

// TestChaosDevexCorruption corrupts pricing weights at every framework
// reset. Pricing is a heuristic, so the solve must still reach the clean
// optimum — possibly by a different pivot path.
func TestChaosDevexCorruption(t *testing.T) {
	m := randomBoundedLP(30, 40, 17)
	want := cleanObjective(t, m)

	s := NewSolver(m)
	s.SetChaos(&ChaosScript{Seed: 4, DevexEvery: 1})
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-want) > 1e-6*(1+math.Abs(want)) {
		t.Errorf("objective = %g, clean = %g", sol.Objective, want)
	}
}

// TestChaosDualWeightCorruption poisons one dual steepest-edge weight at
// every dualInner entry across warm RHS re-solves. Like Devex, the weights
// only steer pricing: each warm dual solve must still land on the clean
// dense-engine optimum of the same LP.
func TestChaosDualWeightCorruption(t *testing.T) {
	m := randomBoundedLP(30, 40, 23)
	clean := NewSolver(m)
	clean.SetEngine(EngineDense)
	s := NewSolver(m)
	for _, x := range []*Solver{clean, s} {
		if _, err := x.Solve(); err != nil {
			t.Fatal(err)
		}
	}
	s.SetChaos(&ChaosScript{Seed: 6, DevexEvery: 1})
	warm := 0
	for _, scale := range []float64{0.5, 0.3, 0.8} {
		for i := 0; i < 30; i += 3 {
			rhs := m.RHS(RowID(i)) * scale
			clean.SetRHS(i, rhs)
			s.SetRHS(i, rhs)
		}
		want, err := clean.Solve()
		if err != nil {
			t.Fatal(err)
		}
		sol, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal || want.Status != Optimal {
			t.Fatalf("status = %v, clean %v", sol.Status, want.Status)
		}
		if math.Abs(sol.Objective-want.Objective) > 1e-6*(1+math.Abs(want.Objective)) {
			t.Errorf("objective = %g, clean = %g", sol.Objective, want.Objective)
		}
		warm += sol.Iterations
	}
	if warm == 0 {
		t.Fatal("no warm pivots: the corrupted weights were never used")
	}
}

// TestChaosDeterministic replays the same script twice and demands identical
// diagnostics and results — the injection must be a pure function of the
// script and the solve's event sequence.
func TestChaosDeterministic(t *testing.T) {
	m := randomBoundedLP(30, 40, 19)
	run := func() (*Solution, error) {
		s := NewSolver(m)
		s.SetEngine(EngineEta)
		s.SetChaos(&ChaosScript{Seed: 5, EtaNoise: 5e-3, EtaEvery: 2, DevexEvery: 3, FailFactorEta: 1})
		return s.Solve()
	}
	a, errA := run()
	b, errB := run()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("replay diverged: %v vs %v", errA, errB)
	}
	if errA != nil {
		return
	}
	if a.Status != b.Status || a.Objective != b.Objective || a.Iterations != b.Iterations {
		t.Errorf("replay diverged: (%v %.17g %d) vs (%v %.17g %d)",
			a.Status, a.Objective, a.Iterations, b.Status, b.Objective, b.Iterations)
	}
	if strings.Join(a.Diag.Ladder, ",") != strings.Join(b.Diag.Ladder, ",") {
		t.Errorf("ladders diverged: %v vs %v", a.Diag.Ladder, b.Diag.Ladder)
	}
}
