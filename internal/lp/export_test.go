package lp

// Test-only hooks. The engine benchmarks and cross-engine equivalence tests
// live in the external package lp_test (they import internal/design to build
// the real design LPs, which would cycle from inside package lp), so the
// unexported pieces they exercise are re-exported here for test builds.

// Refresh refactorizes the current basis and recomputes the basic values.
func (s *Solver) Refresh() error { return s.refresh() }

// FtranCol runs one FTRAN of column col through the active representation.
func (s *Solver) FtranCol(col int) []float64 { return s.ftran(col) }

// NumCols reports the total column count (structurals + logicals +
// artificials) of the computational form.
func (s *Solver) NumCols() int { return len(s.cost) }

// HyperSparseMinDim is the basis dimension from which the eta engine's
// solves may take the hyper-sparse path.
const HyperSparseMinDim = hsMinDim

// BtranRowPaths returns row r of Binv twice, copied out of solver scratch:
// through btranRow's hyper-sparse path (the running density average is
// cleared first so the gate cannot divert it) and through the dense
// reference solve.
func (s *Solver) BtranRowPaths(r int) (sparse, dense []float64) {
	s.hs.btranDens = 0
	sparse = append([]float64(nil), s.btranRowSparse(r)...)
	w := s.growPosSp()
	for i := range w {
		w[i] = 0
	}
	s.hs.posSpDirty, s.hs.rhoDirty = true, true
	w[r] = 1
	dense = append([]float64(nil), s.btranEta(w)...)
	return sparse, dense
}

// FtranPaths returns Binv * A[col] twice, copied out of solver scratch:
// through ftran's hyper-sparse path (density average cleared first) and
// through the dense reference solve.
func (s *Solver) FtranPaths(col int) (sparse, dense []float64) {
	s.hs.ftranDens = 0
	sparse = append([]float64(nil), s.ftranEta(col)...)
	b := s.growRowSp()
	for i := range b {
		b[i] = 0
	}
	s.hs.rowSpDirty = true
	for t, ri := range s.colR[col] {
		b[ri] = s.colV[col][t]
	}
	out := s.growU()
	s.ftranVec(b, out)
	dense = append([]float64(nil), out...)
	return sparse, dense
}
