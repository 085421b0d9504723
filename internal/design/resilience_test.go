package design

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tcr/internal/topo"
)

// TestCheckpointResumeK4 pins the checkpoint contract: a run killed by a
// round budget leaves a checkpoint, and resuming it with the full budget
// reproduces the uninterrupted run bit for bit — same objective, flow,
// exact worst-case load, round count, and final pivot count.
func TestCheckpointResumeK4(t *testing.T) {
	killAndResume(t, topo.NewTorus(4), 6, nil)
}

// killAndResume runs tp's worst-case-optimal design three ways — an
// uninterrupted checkpointing reference, a run killed after killRounds,
// and a resume of the killed run's checkpoint — and fails the test unless
// the resume reproduces the reference bit for bit. inspect, when non-nil,
// sees the killed run's checkpoint before the resume.
func killAndResume(t *testing.T, tp topo.Topology, killRounds int, inspect func(*checkpoint)) {
	t.Helper()
	dir := t.TempDir()

	// Reference: an uninterrupted checkpointing run. (The checkpoint write
	// barrier refactorizes each round, so the reference must checkpoint
	// too — a no-checkpoint run is a different, equally valid trajectory.)
	full, err := WorstCaseOptimal(tp, Options{Checkpoint: filepath.Join(dir, "ref.ckpt")})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Certified {
		t.Fatalf("reference run uncertified: %s", full.Reason)
	}

	// Killed run: same formulation, round budget too small to certify.
	ckpt := filepath.Join(dir, "wc.ckpt")
	partial, err := WorstCaseOptimal(tp, Options{Checkpoint: ckpt, MaxRounds: killRounds})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Certified {
		t.Fatalf("%d-round run certified; budget too large for the kill test", killRounds)
	}
	if partial.Flow == nil || partial.Reason == "" {
		t.Fatalf("degraded result missing flow or reason: %+v", partial)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("no checkpoint left behind by the killed run: %v", err)
	}
	if inspect != nil {
		var ck checkpoint
		if err := json.Unmarshal(data, &ck); err != nil {
			t.Fatal(err)
		}
		inspect(&ck)
	}

	// Resume with the default budget and compare against the reference.
	resumed, err := WorstCaseOptimal(tp, Options{Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Certified {
		t.Fatalf("resumed run uncertified: %s", resumed.Reason)
	}
	//lint:ignore floatcmp the resume contract is bit-for-bit equality
	if resumed.Objective != full.Objective || resumed.GammaWC != full.GammaWC {
		t.Errorf("resumed optimum (%.17g, %.17g) != reference (%.17g, %.17g)",
			resumed.Objective, resumed.GammaWC, full.Objective, full.GammaWC)
	}
	if got, want := goldenHash(resumed.Flow.X, resumed.Objective), goldenHash(full.Flow.X, full.Objective); got != want {
		t.Errorf("resumed flow fingerprint %s != reference %s", got, want)
	}
	if resumed.Rounds != full.Rounds || resumed.Iterations != full.Iterations {
		t.Errorf("resumed trajectory (rounds=%d iters=%d) != reference (rounds=%d iters=%d)",
			resumed.Rounds, resumed.Iterations, full.Rounds, full.Iterations)
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint not cleared after certification: %v", err)
	}
}

// TestCheckpointCorruptIgnored: an unreadable checkpoint degrades to a fresh
// run, never to a wrong resume.
func TestCheckpointCorruptIgnored(t *testing.T) {
	tor := topo.NewTorus(4)
	ckpt := filepath.Join(t.TempDir(), "wc.ckpt")
	if err := os.WriteFile(ckpt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := WorstCaseOptimal(tor, Options{Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified {
		t.Fatalf("uncertified: %s", res.Reason)
	}
	if math.Abs(res.GammaWC-1.0) > 1e-5 {
		t.Fatalf("gamma_wc = %v, want 1.0", res.GammaWC)
	}
}

// TestCheckpointSigMismatchIgnored: a checkpoint from a differently shaped
// run (here: another tolerance) is ignored rather than restored.
func TestCheckpointSigMismatchIgnored(t *testing.T) {
	tor := topo.NewTorus(4)
	ckpt := filepath.Join(t.TempDir(), "wc.ckpt")
	partial, err := WorstCaseOptimal(tor, Options{Checkpoint: ckpt, MaxRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Certified {
		t.Fatal("4-round run certified; expected a leftover checkpoint")
	}
	res, err := WorstCaseOptimal(tor, Options{Checkpoint: ckpt, Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified || math.Abs(res.GammaWC-1.0) > 1e-5 {
		t.Fatalf("certified=%v gamma_wc=%v, want certified 1.0", res.Certified, res.GammaWC)
	}
}

// TestCheckpointTamperRejected: a checkpoint whose content no longer
// matches its integrity hash — here, a semantically valid JSON edit that
// bumps the recorded round count — is rejected and the run starts fresh
// rather than resuming into a corrupted trajectory.
func TestCheckpointTamperRejected(t *testing.T) {
	tor := topo.NewTorus(4)
	ckpt := filepath.Join(t.TempDir(), "wc.ckpt")
	partial, err := WorstCaseOptimal(tor, Options{Checkpoint: ckpt, MaxRounds: 6})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Certified {
		t.Fatal("6-round run certified; expected a leftover checkpoint")
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m["sha256"] == "" || m["sha256"] == nil {
		t.Fatal("checkpoint carries no integrity hash")
	}
	m["round"] = m["round"].(float64) + 1
	tampered, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	// The tampered file parses and carries the right signature, but its
	// hash no longer verifies: the resume must be refused and the fresh
	// run must still certify the known k=4 optimum.
	res, err := WorstCaseOptimal(tor, Options{Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified || math.Abs(res.GammaWC-1.0) > 1e-5 {
		t.Fatalf("certified=%v gamma_wc=%v, want certified 1.0", res.Certified, res.GammaWC)
	}
	// A fresh reference run checkpoints through the same cadence, so a
	// refused resume reproduces its trajectory exactly.
	ref, err := WorstCaseOptimal(tor, Options{Checkpoint: filepath.Join(t.TempDir(), "ref.ckpt")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != ref.Rounds || res.Iterations != ref.Iterations {
		t.Errorf("post-tamper run (rounds=%d iters=%d) != fresh run (rounds=%d iters=%d): tampered state leaked in",
			res.Rounds, res.Iterations, ref.Rounds, ref.Iterations)
	}
}

// TestDegradedWorstCase pins graceful degradation without checkpointing: an
// exhausted round budget yields the best feasible iterate, uncertified, with
// an exact worst-case evaluation no better than the true optimum.
func TestDegradedWorstCase(t *testing.T) {
	tor := topo.NewTorus(4)
	res, err := WorstCaseOptimal(tor, Options{MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certified {
		t.Fatal("3-round run certified; budget too large for the degradation test")
	}
	if res.Flow == nil {
		t.Fatal("degraded result carries no flow")
	}
	if !strings.Contains(res.Reason, "converge") {
		t.Errorf("reason %q does not name the exhausted budget", res.Reason)
	}
	// The uncertified routing is feasible, so its exact worst-case load
	// can only be at or above the true optimum (1.0 on the k=4 torus).
	if res.GammaWC < 1.0-1e-9 {
		t.Errorf("degraded gamma_wc = %v below the optimum", res.GammaWC)
	}
	if res.HNorm <= 0 {
		t.Errorf("degraded result missing locality metrics: HNorm=%v", res.HNorm)
	}
}

// TestParetoUncertifiedErrors: sweeps cannot degrade point-wise, so an
// exhausted budget surfaces as ErrUncertified.
func TestParetoUncertifiedErrors(t *testing.T) {
	tor := topo.NewTorus(4)
	_, err := WorstCaseParetoCurve(tor, []float64{1.0, 2.0}, Options{MaxRounds: 2})
	if !errors.Is(err, ErrUncertified) {
		t.Fatalf("err = %v, want ErrUncertified", err)
	}
}

// TestMinLocalityDegradesOnStage1: the lexicographic design must not cap
// stage 2 with an uncertified stage-1 bound.
func TestMinLocalityDegradesOnStage1(t *testing.T) {
	tor := topo.NewTorus(4)
	res, err := MinLocalityAtWorstCase(tor, Options{MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certified {
		t.Fatal("expected an uncertified stage-1 degradation")
	}
	if !strings.HasPrefix(res.Reason, "stage 1:") {
		t.Errorf("reason %q does not attribute the failure to stage 1", res.Reason)
	}
}

// TestLexCheckpointedStage2 pins the regression where checkpointing the
// lexicographic design poisoned stage 2: every stage-1 checkpoint write
// runs the RefreshFactors barrier, which legitimately perturbs the
// numerical trajectory, and the perturbed stage-2 LP — feasible only
// within its 1e-6 cap slack — parked the eta engine's phase 1 at a
// certified optimum carrying ~1.7e-7 of artificial rounding mass, which
// an absolute mass cutoff escalated into a wrong Infeasible verdict.
func TestLexCheckpointedStage2(t *testing.T) {
	tor := topo.NewTorus(4)
	ref, err := MinLocalityAtWorstCase(tor, Options{})
	if err != nil {
		t.Fatalf("uncheckpointed: %v", err)
	}
	ck := filepath.Join(t.TempDir(), "lex.ckpt")
	res, err := MinLocalityAtWorstCase(tor, Options{Checkpoint: ck, CheckpointEvery: 1})
	if err != nil {
		t.Fatalf("checkpointed every round: %v", err)
	}
	if !res.Certified {
		t.Fatalf("checkpointed run uncertified: %s", res.Reason)
	}
	// The barrier refactorizations make the trajectories legitimately
	// different, so only the certified quantities must agree.
	if math.Abs(res.HNorm-ref.HNorm) > 1e-5 || math.Abs(res.GammaWC-ref.GammaWC) > 1e-5 {
		t.Fatalf("checkpointed run diverged: H=%v gamma=%v, want H=%v gamma=%v",
			res.HNorm, res.GammaWC, ref.HNorm, ref.GammaWC)
	}
}

// TestPotentialModelRebuild: the lazy-row loop drops its base model once
// the restores are done, and a later retry rebuilds the solver from a
// rebuilt model. That model must be the original byte for byte (MPS with
// 17-digit coefficients), on a torus with a locality row and on a mesh.
func TestPotentialModelRebuild(t *testing.T) {
	for _, tc := range []struct {
		spec string
		loc  bool
	}{{"torus2d:4", true}, {"mesh:3x3", false}, {"torus3d:3", false}} {
		tp, err := topo.Parse(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		q := newPotentialLP(tp, tc.loc, Options{Workers: 1})
		var orig bytes.Buffer
		if err := q.Model().WriteMPS(&orig, tc.spec); err != nil {
			t.Fatal(err)
		}
		res, err := q.solve(context.Background(), math.NaN())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Certified {
			t.Fatalf("%s: uncertified: %s", tc.spec, res.Reason)
		}
		if q.model != nil {
			t.Fatalf("%s: the loop kept its base model", tc.spec)
		}
		var rebuilt bytes.Buffer
		if err := q.Model().WriteMPS(&rebuilt, tc.spec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(orig.Bytes(), rebuilt.Bytes()) {
			t.Fatalf("%s: rebuilt base model differs from the original", tc.spec)
		}
	}
}
