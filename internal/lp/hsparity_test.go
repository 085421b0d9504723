package lp_test

// Parity of the hyper-sparse solves with the dense reference solves on a
// design loop basis. The density gate chooses between the two paths per
// solve, so the choice must be invisible: every BTRAN row and FTRAN column
// is compared bit for bit. The one tolerated difference is the sign of a
// zero: a step outside the symbolic reach leaves +0 where the dense pass
// writes -0, and no consumer distinguishes the two (hypersparse.go).

import (
	"math"
	"testing"

	"tcr/internal/lp"
)

// zeroBits returns the bits of v with -0 folded into +0.
func zeroBits(v float64) uint64 {
	//lint:ignore floatcmp folds the two signed zeros only
	if v == 0 {
		return 0
	}
	return math.Float64bits(v)
}

// checkBits fails the test unless the two vectors are bit-identical up to
// the sign of zeros.
func checkBits(t *testing.T, tag string, sparse, dense []float64) {
	t.Helper()
	if len(sparse) != len(dense) {
		t.Fatalf("%s: lengths %d and %d", tag, len(sparse), len(dense))
	}
	for i := range sparse {
		if zeroBits(sparse[i]) != zeroBits(dense[i]) {
			t.Fatalf("%s: entry %d sparse %v (%x), dense %v (%x)", tag, i,
				sparse[i], math.Float64bits(sparse[i]), dense[i], math.Float64bits(dense[i]))
		}
	}
}

// TestHyperSparseParityLoopBasis solves the k=6 design LP with a pool of
// permutation cuts, then compares the hyper-sparse and dense solves for
// every unit BTRAN seed and a sample of FTRAN columns: once with the eta
// file the warm solve left behind (pivot and border ops), once on fresh
// factors.
func TestHyperSparseParityLoopBasis(t *testing.T) {
	bl := designBenchLP(6, 40)
	s := lp.NewSolver(bl.fl.Model())
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	for _, c := range bl.cuts {
		s.AddCut(c, lp.LE, 0)
	}
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	m := s.NumRows()
	if m < lp.HyperSparseMinDim {
		t.Fatalf("loop basis has %d rows, below the hyper-sparse dimension %d", m, lp.HyperSparseMinDim)
	}
	for _, state := range []string{"warm eta file", "fresh factors"} {
		if state == "fresh factors" {
			if err := s.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < m; r++ {
			sparse, dense := s.BtranRowPaths(r)
			checkBits(t, state+": btranRow", sparse, dense)
		}
		for col := 0; col < s.NumCols(); col += 7 {
			sparse, dense := s.FtranPaths(col)
			checkBits(t, state+": ftran", sparse, dense)
		}
	}
	t.Logf("%d rows, %d columns", m, s.NumCols())
}
