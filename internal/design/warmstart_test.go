package design

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"tcr/internal/topo"
)

// The warm-start contract: a certified run writes its final cut-loop state
// to Options.FinalSnapshot, and a later run pointed at it via
// Options.WarmFrom begins with those cuts and that basis installed — so a
// re-solve of the same formulation (even at a different locality target,
// which is the online loop's re-tune case) certifies in strictly fewer
// rounds than a cold solve, at the same optimum.

// TestWarmStartSameTargetOneRound: re-solving the exact formulation a
// snapshot certified should need only the certification round itself.
func TestWarmStartSameTargetOneRound(t *testing.T) {
	tor := topo.NewTorus(4)
	snap := filepath.Join(t.TempDir(), "final.snap")

	cold, err := WorstCaseOptimal(tor, Options{FinalSnapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Certified {
		t.Fatalf("cold run uncertified: %s", cold.Reason)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("no final snapshot written: %v", err)
	}

	warm, err := WorstCaseOptimal(tor, Options{WarmFrom: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Certified {
		t.Fatalf("warm run uncertified: %s", warm.Reason)
	}
	if warm.Rounds != 1 {
		t.Errorf("warm re-solve of an identical formulation took %d rounds, want 1", warm.Rounds)
	}
	// The re-solve starts from a refactorized basis, so the certified
	// optimum may differ from the cold run's in the last ulps.
	if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Errorf("warm objective %.17g != cold %.17g", warm.Objective, cold.Objective)
	}
}

// TestWarmStartAcrossLocalityTargets pins the online re-tune case: a
// snapshot taken at one locality target warm-starts a solve at another
// (cuts are valid for every target), certifying in fewer rounds than a cold
// solve of the new target while reaching the same optimum.
func TestWarmStartAcrossLocalityTargets(t *testing.T) {
	tor := topo.NewTorus(4)
	snap := filepath.Join(t.TempDir(), "final.snap")

	first, err := WorstCaseAtLocality(tor, 1.5, Options{FinalSnapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Certified {
		t.Fatalf("first run uncertified: %s", first.Reason)
	}

	coldRef, err := WorstCaseAtLocality(tor, 1.25, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !coldRef.Certified {
		t.Fatalf("cold reference uncertified: %s", coldRef.Reason)
	}

	warm, err := WorstCaseAtLocality(tor, 1.25, Options{WarmFrom: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Certified {
		t.Fatalf("warm run uncertified: %s", warm.Reason)
	}
	if warm.Rounds >= coldRef.Rounds {
		t.Errorf("warm re-solve took %d rounds, cold %d; warm start saved nothing",
			warm.Rounds, coldRef.Rounds)
	}
	if math.Abs(warm.Objective-coldRef.Objective) > 1e-6*math.Max(1, math.Abs(coldRef.Objective)) {
		t.Errorf("warm optimum %v != cold optimum %v", warm.Objective, coldRef.Objective)
	}
}

// TestWarmStartUnusableSnapshotIgnored: a torn or foreign snapshot means a
// cold start, never a wrong warm one.
func TestWarmStartUnusableSnapshotIgnored(t *testing.T) {
	tor := topo.NewTorus(4)
	dir := t.TempDir()

	cases := []struct{ name, content string }{
		{"torn", `{"sig":"tcr-ckpt-6 k=4`},
		{"garbage", "\x00\x01not a snapshot"},
		{"empty", ""},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			snap := filepath.Join(dir, tc.name+".snap")
			if err := os.WriteFile(snap, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			res, err := WorstCaseOptimal(tor, Options{WarmFrom: snap})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Certified || math.Abs(res.GammaWC-1.0) > 1e-5 {
				t.Fatalf("certified=%v gamma_wc=%v, want certified 1.0", res.Certified, res.GammaWC)
			}
		})
	}

	// A snapshot from a different topology must be rejected by signature.
	snap := filepath.Join(dir, "k5.snap")
	if _, err := WorstCaseOptimal(topo.NewTorus(5), Options{FinalSnapshot: snap}); err != nil {
		t.Fatal(err)
	}
	res, err := WorstCaseOptimal(tor, Options{WarmFrom: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified || math.Abs(res.GammaWC-1.0) > 1e-5 {
		t.Fatalf("foreign-topology snapshot: certified=%v gamma_wc=%v, want certified 1.0",
			res.Certified, res.GammaWC)
	}
}
