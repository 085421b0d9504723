package main

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"tcr/internal/design"
)

func TestSweep(t *testing.T) {
	got := sweep(1, 2, 5)
	want := []float64{1, 1.25, 1.5, 1.75, 2}
	if len(got) != len(want) {
		t.Fatalf("len %d", len(got))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("sweep[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if one := sweep(1, 2, 1); len(one) != 1 || one[0] != 2 {
		t.Fatalf("degenerate sweep = %v", one)
	}
}

func TestAlgByName(t *testing.T) {
	for _, name := range []string{"DOR", "VAL", "IVAL", "ROMM", "RLB", "RLBth", "O1TURN", "GOALish"} {
		if _, ok := algByName(name); !ok {
			t.Errorf("missing algorithm %q", name)
		}
	}
	if _, ok := algByName("nope"); ok {
		t.Error("unknown algorithm accepted")
	}
}

func TestClosedFormsList(t *testing.T) {
	algs := closedForms()
	if len(algs) != 6 {
		t.Fatalf("expected the six Table-1 algorithms, got %d", len(algs))
	}
	seen := map[string]bool{}
	for _, a := range algs {
		if seen[a.Name()] {
			t.Fatalf("duplicate algorithm %s", a.Name())
		}
		seen[a.Name()] = true
	}
}

// TestDesignPathUncertifiedExit4: a path design whose round budget runs out
// fails with ErrUncertified (exit 4) instead of writing a degraded table.
func TestDesignPathUncertifiedExit4(t *testing.T) {
	for _, kind := range []string{"2turn", "2turna"} {
		out := filepath.Join(t.TempDir(), kind+".json")
		err := cmdDesign(context.Background(), []string{"-k", "3", "-kind", kind, "-samples", "4", "-rounds", "1", "-o", out})
		if !errors.Is(err, design.ErrUncertified) || exitCode(err) != exitUncertified {
			t.Errorf("%s: err = %v (exit %d), want ErrUncertified (exit %d)", kind, err, exitCode(err), exitUncertified)
		}
		if _, serr := os.Stat(out); !errors.Is(serr, os.ErrNotExist) {
			t.Errorf("%s: degraded design written to %s", kind, out)
		}
	}
}
