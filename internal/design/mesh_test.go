package design

import (
	"context"
	"math"
	"testing"

	"tcr/internal/topo"
)

// Non-vertex-transitive design: on a mesh the potential blocks are
// independent (one per full-group channel orbit), and LP (8)'s pair rows
// enter lazily as on the tori, with every violated block fed each round.

func mustMesh(t *testing.T, spec string) topo.Topology {
	t.Helper()
	tp, err := topo.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if tp.VertexTransitive() {
		t.Fatalf("%s is vertex-transitive; these tests need a mesh", spec)
	}
	return tp
}

// TestMeshBaseModelHasNoPairRows: no potential block of a mesh starts with
// pair rows; they all enter later as cuts.
func TestMeshBaseModelHasNoPairRows(t *testing.T) {
	q := newPotentialLP(mustMesh(t, "mesh:3x4"), false, Options{})
	for _, b := range q.blocks {
		if len(b.added) != 0 {
			t.Fatalf("block %d starts with %d pair rows, want 0", b.idx, len(b.added))
		}
	}
}

// TestMeshWorstCaseOptimal certifies the worst-case-optimal mesh designs
// and rechecks each certified gamma with an independent exact evaluation.
func TestMeshWorstCaseOptimal(t *testing.T) {
	cases := []struct {
		spec  string
		gamma float64
	}{
		{"mesh:3x3", 7.0 / 6},
		{"mesh:3x4", 2},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			res, err := WorstCaseOptimal(mustMesh(t, tc.spec), Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Certified {
				t.Fatalf("uncertified: %s", res.Reason)
			}
			if res.Rounds < 2 {
				t.Errorf("certified in %d round(s); lazy pair rows need more than one", res.Rounds)
			}
			if d := math.Abs(res.GammaWC - tc.gamma); d > 1e-6*tc.gamma {
				t.Errorf("gamma_wc=%.12g, want %.12g", res.GammaWC, tc.gamma)
			}
			g, _, err := res.Flow.WorstCaseCtx(context.Background(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(g - tc.gamma); d > 1e-6*tc.gamma {
				t.Errorf("re-evaluated gamma_wc=%.12g, want %.12g", g, tc.gamma)
			}
		})
	}
}

// TestCheckpointResumeMesh: a mesh run killed by a round budget resumes
// from its checkpoint, whose cut log holds the lazily added pair rows, to
// the uninterrupted checkpointing run bit for bit.
func TestCheckpointResumeMesh(t *testing.T) {
	killAndResume(t, mustMesh(t, "mesh:3x4"), 4, func(ck *checkpoint) {
		for _, e := range ck.Cuts {
			if e.Kind == cutPair {
				return
			}
		}
		t.Fatal("mesh checkpoint cut log carries no pair rows")
	})
}
