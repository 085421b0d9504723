package lp

import (
	"math"
	"math/rand"
	"testing"
)

// refSelectPivot is the reference pivot choice: the same rule as
// luSelectPivot, computed by full scans over every position and row with
// each column's largest magnitude recomputed from its values, and none of
// the singleton or active-column bitsets and cached column maxima the
// solver keeps. bump reports whether the choice came from the Markowitz
// search rather than a singleton.
func refSelectPivot(s *Solver) (pr, pc, pIdx int, bump bool) {
	w := &s.luw
	m := s.nRows
	for c := 0; c < m; c++ {
		if !w.colPiv[c] && len(w.colRows[c]) == 1 && math.Abs(w.colVals[c][0]) > pivotTol {
			return int(w.colRows[c][0]), c, 0, false
		}
	}
	for r := 0; r < m; r++ {
		if w.rowPiv[r] || w.rowCnt[r] != 1 {
			continue
		}
		for c := 0; c < m; c++ {
			if w.colPiv[c] {
				continue
			}
			idx := -1
			for i, ri := range w.colRows[c] {
				if int(ri) == r {
					idx = i
				}
			}
			if idx < 0 {
				continue
			}
			if a := math.Abs(w.colVals[c][idx]); a > pivotTol && a >= absMax(w.colVals[c])*markowitzStab {
				return r, c, idx, false
			}
			break // the row's only live entry is unstable
		}
	}
	bestMerit := int64(math.MaxInt64)
	bestMag := 0.0
	pr, pc, pIdx = -1, -1, -1
	for c := 0; c < m; c++ {
		if w.colPiv[c] {
			continue
		}
		rows, vals := w.colRows[c], w.colVals[c]
		colMax := absMax(vals)
		if colMax <= pivotTol {
			continue
		}
		cc := int64(len(rows) - 1)
		for i, r := range rows {
			a := math.Abs(vals[i])
			if a < colMax*markowitzStab || a <= pivotTol {
				continue
			}
			merit := cc * int64(w.rowCnt[r]-1)
			if merit < bestMerit || (merit == bestMerit && a > bestMag) {
				bestMerit, bestMag = merit, a
				pr, pc, pIdx = int(r), c, i
			}
		}
		if bestMerit == 0 {
			break
		}
	}
	return pr, pc, pIdx, true
}

// refRepairCol is the reference choice of the column luRepair replaces: the
// lowest-index unpivoted position of smallest largest-magnitude.
func refRepairCol(s *Solver) int {
	w := &s.luw
	bad, badMax := -1, math.Inf(1)
	for c := 0; c < s.nRows; c++ {
		if !w.colPiv[c] {
			if mx := absMax(w.colVals[c]); mx < badMax {
				bad, badMax = c, mx
			}
		}
	}
	return bad
}

// checkLUCaches fails the test unless colAct holds exactly the unpivoted
// positions and colMax matches every live column's values.
func checkLUCaches(t *testing.T, s *Solver) {
	t.Helper()
	w := &s.luw
	for c := 0; c < s.nRows; c++ {
		act := w.colAct[c>>6]&(1<<(uint(c)&63)) != 0
		if act == w.colPiv[c] {
			t.Fatalf("position %d: active bit %v, pivoted %v", c, act, w.colPiv[c])
		}
		//lint:ignore floatcmp the cache must hold the exact recomputed maximum
		if act && w.colMax[c] != absMax(w.colVals[c]) {
			t.Fatalf("position %d: cached max %v, values give %v", c, w.colMax[c], absMax(w.colVals[c]))
		}
	}
	for c := s.nRows; c < len(w.colAct)*64; c++ {
		if w.colAct[c>>6]&(1<<(uint(c)&63)) != 0 {
			t.Fatalf("active bit set past the last position %d", c)
		}
	}
}

// randomLUSolver builds a solver over a random sparse model and installs a
// random basis: mostly structural columns, so the factorization has a real
// bump, plus logicals, a few near-null columns and exact duplicates, so
// luRepair runs too. Coefficients come from a small integer set half the
// time to force Markowitz ties.
func randomLUSolver(rng *rand.Rand) *Solver {
	m := 4 + rng.Intn(60)
	n := m/2 + rng.Intn(2*m)
	dens := 0.05 + 0.45*rng.Float64()
	cols := make([][]float64, n)
	for j := range cols {
		cols[j] = make([]float64, m)
		switch {
		case j > 0 && rng.Intn(12) == 0:
			copy(cols[j], cols[rng.Intn(j)])
		case rng.Intn(15) == 0:
			cols[j][rng.Intn(m)] = 1e-13
		default:
			for i := range cols[j] {
				if rng.Float64() < dens {
					if rng.Intn(2) == 0 {
						cols[j][i] = float64(rng.Intn(7) - 3)
					} else {
						cols[j][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
					}
				}
			}
		}
	}
	md := NewModel()
	md.AddVars(n)
	for i := 0; i < m; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			//lint:ignore floatcmp structural zero: absent coefficient
			if cols[j][i] != 0 {
				terms = append(terms, Term{Var: VarID(j), Coef: cols[j][i]})
			}
		}
		md.AddRow(terms, Rel(rng.Intn(3)), 1, "")
	}
	s := NewSolver(md)
	var cand []int
	for j := range s.cost {
		if s.kind[j] == kindStruct || (s.kind[j] != kindArtificial && rng.Intn(3) == 0) {
			cand = append(cand, j)
		}
	}
	for len(cand) < m {
		cand = append(cand, s.artOf[len(cand)%m])
	}
	rng.Shuffle(len(cand), func(a, b int) { cand[a], cand[b] = cand[b], cand[a] })
	s.basis = append(s.basis[:0], cand[:m]...)
	s.pos = make([]int, len(s.cost))
	for j := range s.pos {
		s.pos[j] = -1
	}
	for r, col := range s.basis {
		s.pos[col] = r
	}
	return s
}

// TestLUSelectPivotMatchesFullScan pins the active-column Markowitz search
// to the full-scan rule it replaced: on random sparse bases, every pivot
// step picks the same (row, position, entry) as refSelectPivot, every
// repair replaces the same position as refRepairCol, and the active set and
// cached column maxima stay exact throughout.
func TestLUSelectPivotMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	bumpSteps, repairs := 0, 0
	for trial := 0; trial < 400; trial++ {
		s := randomLUSolver(rng)
		s.luLoad()
	steps:
		for step := 0; step < s.nRows; step++ {
			for {
				checkLUCaches(t, s)
				wr, wc, wi, bump := refSelectPivot(s)
				pr, pc, pIdx := s.luSelectPivot()
				if pr != wr || pc != wc || pIdx != wi {
					t.Fatalf("trial %d step %d: pivot (%d,%d,%d), full scan (%d,%d,%d)",
						trial, step, pr, pc, pIdx, wr, wc, wi)
				}
				if pc >= 0 {
					if bump {
						bumpSteps++
					}
					s.luEliminate(pr, pc, pIdx)
					break
				}
				bad := refRepairCol(s)
				old := -1
				if bad >= 0 {
					old = s.basis[bad]
				}
				if err := s.luRepair(); err != nil {
					break steps // singular beyond repair: same on either scan
				}
				repairs++
				if bad < 0 || s.basis[bad] == old || s.kind[s.basis[bad]] != kindArtificial {
					t.Fatalf("trial %d step %d: repair did not replace position %d", trial, step, bad)
				}
			}
		}
	}
	if bumpSteps == 0 || repairs == 0 {
		t.Fatalf("random bases exercised %d bump steps and %d repairs; want both > 0", bumpSteps, repairs)
	}
	t.Logf("%d bump steps, %d repairs", bumpSteps, repairs)
}
