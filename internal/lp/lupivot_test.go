package lp

import (
	"math"
	"math/rand"
	"testing"
)

// acceptable reports whether entry i of unpivoted position c passes the
// pivot thresholds, with the column maximum recomputed from its values.
func acceptable(w *luWork, c, i int) bool {
	a := math.Abs(w.colVals[c][i])
	return a > pivotTol && a >= absMax(w.colVals[c])*markowitzStab
}

// refMinMerit is the full-scan Markowitz minimum over every acceptable entry
// of the unpivoted submatrix (math.MaxInt64 when there is none), and
// refSingleton whether one of those entries is an acceptable singleton: the
// only live entry of its column or of its row.
func refMinMerit(s *Solver) (minMerit int64, refSingleton bool) {
	w := &s.luw
	minMerit = math.MaxInt64
	for c := 0; c < s.nRows; c++ {
		if w.colPiv[c] {
			continue
		}
		cc := int64(len(w.colRows[c]) - 1)
		for i, r := range w.colRows[c] {
			if !acceptable(w, c, i) {
				continue
			}
			rc := int64(w.rowCnt[r] - 1)
			if cc == 0 || rc == 0 {
				refSingleton = true
			}
			if merit := cc * rc; merit < minMerit {
				minMerit = merit
			}
		}
	}
	return minMerit, refSingleton
}

// checkLUBuckets fails the test unless every unpivoted position sits in
// exactly the count bucket of its live entry count, with consistent links,
// no pivoted position sits in any bucket, and colMax matches every live
// column's values.
func checkLUBuckets(t *testing.T, s *Solver) {
	t.Helper()
	w := &s.luw
	m := s.nRows
	if len(w.bktHead) != m+1 {
		t.Fatalf("%d count buckets for %d positions", len(w.bktHead), m)
	}
	seen := make([]bool, m)
	for n, head := range w.bktHead {
		prev := int32(-1)
		for c := head; c >= 0; c = w.bktNext[c] {
			switch {
			case seen[c]:
				t.Fatalf("position %d listed twice", c)
			case w.colPiv[c]:
				t.Fatalf("pivoted position %d in bucket %d", c, n)
			case len(w.colRows[c]) != n || int(w.colBkt[c]) != n:
				t.Fatalf("position %d with %d live entries (colBkt %d) in bucket %d",
					c, len(w.colRows[c]), w.colBkt[c], n)
			case w.bktPrev[c] != prev:
				t.Fatalf("position %d: back link %d, want %d", c, w.bktPrev[c], prev)
			}
			seen[c] = true
			prev = c
		}
	}
	for c := 0; c < m; c++ {
		if !w.colPiv[c] && !seen[c] {
			t.Fatalf("unpivoted position %d (%d live entries) in no bucket", c, len(w.colRows[c]))
		}
		if w.colPiv[c] && w.colBkt[c] != -1 {
			t.Fatalf("pivoted position %d keeps bucket %d", c, w.colBkt[c])
		}
		//lint:ignore floatcmp the cache must hold the exact recomputed maximum
		if !w.colPiv[c] && w.colMax[c] != absMax(w.colVals[c]) {
			t.Fatalf("position %d: cached max %v, values give %v", c, w.colMax[c], absMax(w.colVals[c]))
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

// TestLUBoundedMarkowitz checks the bounded Markowitz rule step by step on
// random sparse bases: every pivot passes both magnitude thresholds, an
// acceptable singleton is always taken when one exists, the count buckets
// hold exactly the unpivoted columns at their live counts, and a bump
// search that stopped on its merit bound returns the full-scan minimum
// merit. Repairs replace a column of least magnitude.
func TestLUBoundedMarkowitz(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	exactStops, limitStops, repairs := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		s := randomLUSolver(rng)
		w := &s.luw
		s.luLoad()
	steps:
		for step := 0; step < s.nRows; step++ {
			for {
				checkLUBuckets(t, s)
				minMerit, single := refMinMerit(s)
				pr, pc, pIdx := s.luSelectPivot()
				if pc < 0 {
					if minMerit != math.MaxInt64 {
						t.Fatalf("trial %d step %d: no pivot, full scan finds merit %d", trial, step, minMerit)
					}
					before := append([]int(nil), s.basis...)
					maxBefore := make([]float64, s.nRows)
					minMax := math.Inf(1)
					for c := range maxBefore {
						maxBefore[c] = absMax(w.colVals[c])
						if !w.colPiv[c] {
							minMax = math.Min(minMax, maxBefore[c])
						}
					}
					if err := s.luRepair(); err != nil {
						break steps // singular beyond repair
					}
					repairs++
					changed := 0
					for c, col := range s.basis {
						if col == before[c] {
							continue
						}
						changed++
						//lint:ignore floatcmp the repaired column must be one of least magnitude
						if w.colPiv[c] || s.kind[col] != kindArtificial || maxBefore[c] != minMax {
							t.Fatalf("trial %d step %d: repair replaced position %d (max %v, least %v) by column %d",
								trial, step, c, maxBefore[c], minMax, col)
						}
					}
					if changed != 1 {
						t.Fatalf("trial %d step %d: repair changed %d positions", trial, step, changed)
					}
					continue
				}
				if int(w.colRows[pc][pIdx]) != pr || !acceptable(w, pc, pIdx) {
					t.Fatalf("trial %d step %d: pivot (%d,%d,%d) fails the thresholds", trial, step, pr, pc, pIdx)
				}
				merit := int64(len(w.colRows[pc])-1) * int64(w.rowCnt[pr]-1)
				if single {
					if merit != 0 {
						t.Fatalf("trial %d step %d: merit %d taken over an acceptable singleton", trial, step, merit)
					}
				} else {
					br, bc, bi, exact := s.luMarkowitz()
					if br != pr || bc != pc || bi != pIdx {
						t.Fatalf("trial %d step %d: luSelectPivot (%d,%d,%d), luMarkowitz (%d,%d,%d)",
							trial, step, pr, pc, pIdx, br, bc, bi)
					}
					if exact {
						exactStops++
						if merit != minMerit {
							t.Fatalf("trial %d step %d: bounded search stopped at merit %d, full scan %d",
								trial, step, merit, minMerit)
						}
					} else {
						limitStops++
					}
				}
				s.luEliminate(pr, pc, pIdx)
				break
			}
		}
	}
	if exactStops == 0 || limitStops == 0 || repairs == 0 {
		t.Fatalf("random bases exercised %d exact stops, %d limit stops and %d repairs; want all > 0",
			exactStops, limitStops, repairs)
	}
	t.Logf("%d exact stops, %d limit stops, %d repairs", exactStops, limitStops, repairs)
}
