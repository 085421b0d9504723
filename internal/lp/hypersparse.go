package lp

// Hyper-sparse FTRAN/BTRAN: Gilbert–Peierls-style symbolic reach over the LU
// factors so that triangular solves with very sparse right-hand sides (an
// entering column with a handful of nonzeros, the unit seed of a BTRAN row)
// touch only the factor steps that can produce nonzeros, instead of walking
// all m steps and zeroing all m entries of the scratch vectors.
//
// The design constraint is bit-for-bit parity with the dense solves, which
// the cross-engine oracle tests and the design-layer fingerprints pin down.
// The scheme that achieves it:
//
//   - The scratch vectors (rowSp, posSp, rho) keep an all-zero invariant
//     outside a tracked nonzero pattern. Sparse writers record every write
//     in the pattern; dense writers (recomputeXB, computeY, the dense
//     engine's paths) just mark the vector dirty, and the next sparse use
//     re-zeroes it fully. The FTRAN output u is exempt: every path through
//     ftranVecSparse writes it in full (the sparse tail memsets it first),
//     because tracking its pattern through the eta file costs more than the
//     single O(n) zeroing it would save.
//   - Numeric passes process the symbolically reached steps in the same
//     global direction as the dense pass, with full segments, so every
//     float accumulation happens in the dense order with the dense
//     operands. Steps outside the reach could only ever write signed
//     zeros densely, and signed-zero differences are unobservable here:
//     all comparisons treat ±0 as equal, structurally-zero entries are
//     skipped on append, and reported duals are recomputed densely.
//   - When a reach covers more than 1/hyperSparseDenom of the steps, the
//     remaining passes run dense (the symbolic walk would cost more than
//     it saves) and the output vector is simply marked dirty.
//   - Each solve kind keeps a running average of its result density, in
//     the manner of Hall & McKinnon (2005). Past hsDensityMax the next
//     solve skips the symbolic machinery and takes the dense reference path
//     outright: in the warm dual simplex on cut-laden bases, BTRAN rows
//     average 30-50% nonzero and FTRAN columns 27-53%, where every reach is
//     overhead, while the cold base-LP solves stay hyper-sparse and keep
//     the reach.

// hyperSparseDenom is the density cutoff: a symbolic reach covering more
// than m/hyperSparseDenom factor steps completes densely.
const hyperSparseDenom = 4

// hsMinDim is the dimension cutoff: below it the solves run the dense
// reference formulas outright. On small bases (the k=4 design LP is 87 rows)
// the symbolic machinery — transpose rebuilds, DFS reaches, pattern stamps —
// costs more than the O(m) work it avoids, and since the sparse passes
// reproduce the dense accumulation bit for bit, the choice is unobservable
// in the results.
const hsMinDim = 256

// hsFtranSeedDenom gates the FTRAN U phase on the post-L pattern size: a
// right-hand side already filled past m/hsFtranSeedDenom rows completes
// densely without running the U reach at all. FTRAN images of entering
// columns fan out in U far more than BTRAN's unit seeds, so for non-tiny
// patterns the U walk (whose edge set is the U nonzeros) routinely costs
// more than the dense pass it tries to avoid; the L pass stays symbolic
// because its reach is cheap and its fill is what this gate inspects.
const hsFtranSeedDenom = 16

// hsDensityMax is the predicted result density (nonzeros / length) above
// which a solve takes the dense reference path.
const hsDensityMax = 0.10

// hsDensityWeight is the weight of the newest solve in the running density
// average.
const hsDensityWeight = 0.05

// hsStampMax bounds the visit stamps; past it the mark arrays are re-zeroed
// so int32 stamps can never wrap into false matches on hours-scale runs.
const hsStampMax = 1 << 30

// hyperSparse bundles the solver's hyper-sparse solve state.
type hyperSparse struct {
	// Nonzero patterns of the scratch vectors, and the dirty flags set by
	// dense (untracked) writers.
	rowSpPat, posSpPat, rhoPat       []int32
	rowSpDirty, posSpDirty, rhoDirty bool

	// Step indexes and consumer transposes of the current factorization,
	// rebuilt lazily after each factorizeSparse.
	transOK   bool
	stepOfRow []int32 // constraint row -> factor step (prow inverse)
	stepOfPos []int32 // basis position -> factor step (pcol inverse)
	uConsPtr  []int32 // CSR: position p -> steps whose U segment reads p
	uConsIdx  []int32
	lConsPtr  []int32 // CSR: row r -> steps whose L segment touches r
	lConsIdx  []int32
	cur       []int32 // CSR fill cursors

	// Symbolic reach workspace: per-step visit stamps, the DFS stack, the
	// collected reach, and per-row/per-position pattern stamps.
	mark   []int32
	stamp  int32
	stack  []int32
	reach  []int32
	vmark  []int32
	vstamp int32

	// Running result-density averages of btranRowSparse and ftranVecSparse,
	// updated only at dimensions where the symbolic path is an option.
	btranDens, ftranDens float64
}

// trackDensity folds one solve's result density (nz nonzeros out of n)
// into the running average avg.
func trackDensity(avg float64, nz, n int) float64 {
	//lint:ignore nanguard n is a solve's result length, at least hsMinDim
	return (1-hsDensityWeight)*avg + hsDensityWeight*float64(nz)/float64(n)
}

// countNonzeros reports the number of nonzero entries of v.
func countNonzeros(v []float64) int {
	nz := 0
	for _, x := range v {
		//lint:ignore floatcmp structural count of exact zeros
		if x != 0 {
			nz++
		}
	}
	return nz
}

// clearScratch restores a scratch vector's all-zero invariant: O(pattern)
// when the pattern is trusted, a full zeroing after a dense write. The
// pattern is reset either way.
func (s *Solver) clearScratch(buf []float64, pat *[]int32, dirty *bool) {
	if *dirty {
		for i := range buf {
			buf[i] = 0
		}
		*dirty = false
	} else {
		for _, i := range *pat {
			buf[i] = 0
		}
	}
	*pat = (*pat)[:0]
}

// ensureHS sizes the reach workspace for the current factor/row counts and
// resets the stamp arrays before the stamps could ever wrap.
func (s *Solver) ensureHS() {
	hsp := &s.hs
	m := s.lu.m
	if cap(hsp.mark) < m {
		hsp.mark = make([]int32, m)
		hsp.stamp = 0
	}
	hsp.mark = hsp.mark[:m]
	if hsp.stamp >= hsStampMax {
		for i := range hsp.mark {
			hsp.mark[i] = 0
		}
		hsp.stamp = 0
	}
	n := s.nRows
	if cap(hsp.vmark) < n {
		hsp.vmark = make([]int32, n)
		hsp.vstamp = 0
	}
	hsp.vmark = hsp.vmark[:n]
	if hsp.vstamp >= hsStampMax {
		for i := range hsp.vmark {
			hsp.vmark[i] = 0
		}
		hsp.vstamp = 0
	}
}

// growInt32 resizes a to n, reallocating with headroom: the factor
// transposes it backs grow with every refactorization of a filling basis.
func growInt32(a []int32, n int) []int32 {
	if cap(a) < n {
		return make([]int32, n, n+n/4)
	}
	return a[:n]
}

// sortInt32 sorts ascending without allocating (shellsort; the reach lists
// are small and this runs on every FTRAN/BTRAN).
func sortInt32(a []int32) {
	for gap := len(a) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(a); i++ {
			v := a[i]
			j := i
			for ; j >= gap && a[j-gap] > v; j -= gap {
				a[j] = a[j-gap]
			}
			a[j] = v
		}
	}
}

// orderReach puts the current reach in ascending step order. Tiny reaches
// shellsort; past m/8 a linear sweep over the visit stamps is cheaper than
// comparison sorting (one predictable pass instead of gap-strided swaps) and
// its O(m) is bounded by the density cutoff having already admitted O(m)
// numeric work.
func (s *Solver) orderReach(st int32, m int) {
	hsp := &s.hs
	if len(hsp.reach)*8 <= m {
		sortInt32(hsp.reach)
		return
	}
	hsp.reach = hsp.reach[:0]
	for t := 0; t < m; t++ {
		if hsp.mark[t] == st {
			hsp.reach = append(hsp.reach, int32(t))
		}
	}
}

// buildTrans rebuilds the step indexes and the U/L consumer transposes for
// the current factorization.
func (s *Solver) buildTrans() {
	lu := &s.lu
	hsp := &s.hs
	m := lu.m
	s.ensureHS()
	hsp.stepOfRow = growInt32(hsp.stepOfRow, m)
	hsp.stepOfPos = growInt32(hsp.stepOfPos, m)
	for t := 0; t < m; t++ {
		hsp.stepOfRow[lu.prow[t]] = int32(t)
		hsp.stepOfPos[lu.pcol[t]] = int32(t)
	}
	hsp.cur = growInt32(hsp.cur, m)

	hsp.uConsPtr = growInt32(hsp.uConsPtr, m+1)
	for i := range hsp.uConsPtr {
		hsp.uConsPtr[i] = 0
	}
	for _, p := range lu.uPos {
		hsp.uConsPtr[p+1]++
	}
	for i := 0; i < m; i++ {
		hsp.uConsPtr[i+1] += hsp.uConsPtr[i]
	}
	hsp.uConsIdx = growInt32(hsp.uConsIdx, len(lu.uPos))
	copy(hsp.cur, hsp.uConsPtr[:m])
	for t := 0; t < m; t++ {
		for k := lu.uPtr[t]; k < lu.uPtr[t+1]; k++ {
			p := lu.uPos[k]
			hsp.uConsIdx[hsp.cur[p]] = int32(t)
			hsp.cur[p]++
		}
	}

	hsp.lConsPtr = growInt32(hsp.lConsPtr, m+1)
	for i := range hsp.lConsPtr {
		hsp.lConsPtr[i] = 0
	}
	for _, r := range lu.lRow {
		hsp.lConsPtr[r+1]++
	}
	for i := 0; i < m; i++ {
		hsp.lConsPtr[i+1] += hsp.lConsPtr[i]
	}
	hsp.lConsIdx = growInt32(hsp.lConsIdx, len(lu.lRow))
	copy(hsp.cur, hsp.lConsPtr[:m])
	for t := 0; t < m; t++ {
		for k := lu.lPtr[t]; k < lu.lPtr[t+1]; k++ {
			r := lu.lRow[k]
			hsp.lConsIdx[hsp.cur[r]] = int32(t)
			hsp.cur[r]++
		}
	}
	hsp.transOK = true
}

// ftranVecSparse solves B u = b like ftranVec: by the dense reference solve
// on small bases and when the running density average predicts a dense
// result, by the symbolic reach otherwise. Every path writes out in full —
// the caller need not (and must not bother to) pre-clear it.
func (s *Solver) ftranVecSparse(b, out []float64) {
	hsp := &s.hs
	if s.lu.m < hsMinDim {
		hsp.rowSpDirty = true
		s.ftranVec(b, out)
		return
	}
	if hsp.ftranDens > hsDensityMax {
		hsp.rowSpDirty = true
		s.ftranVec(b, out)
	} else {
		s.ftranVecReach(b, out)
	}
	hsp.ftranDens = trackDensity(hsp.ftranDens, countNonzeros(out), len(out))
}

// ftranVecReach solves B u = b like ftranVec, but drives each triangular
// pass over the symbolic reach of b's pattern (s.hs.rowSpPat, which it
// extends with the L-pass fill). Falls back to the dense passes past the
// density cutoff.
func (s *Solver) ftranVecReach(b, out []float64) {
	lu := &s.lu
	hsp := &s.hs
	m := lu.m
	if !hsp.transOK {
		s.buildTrans()
	} else {
		s.ensureHS()
	}

	// L pass. Reach: the steps owning the pattern rows, closed under
	// "step t's multipliers write rows owned by later steps". The walk
	// aborts the moment the reach crosses the density cutoff — once the
	// pass is going to run dense, every further symbolic step is pure
	// overhead on top of it.
	limit := m / hyperSparseDenom
	hsp.stamp++
	st := hsp.stamp
	hsp.stack = hsp.stack[:0]
	hsp.reach = hsp.reach[:0]
	for _, r := range hsp.rowSpPat {
		if int(r) >= m {
			continue // border rows bypass the factors
		}
		if t := hsp.stepOfRow[r]; hsp.mark[t] != st {
			hsp.mark[t] = st
			hsp.stack = append(hsp.stack, t)
		}
	}
	for len(hsp.stack) > 0 && len(hsp.reach) <= limit {
		t := hsp.stack[len(hsp.stack)-1]
		hsp.stack = hsp.stack[:len(hsp.stack)-1]
		hsp.reach = append(hsp.reach, t)
		for k := lu.lPtr[t]; k < lu.lPtr[t+1]; k++ {
			if nt := hsp.stepOfRow[lu.lRow[k]]; hsp.mark[nt] != st {
				hsp.mark[nt] = st
				hsp.stack = append(hsp.stack, nt)
			}
		}
	}
	if len(hsp.reach) > limit {
		// Too dense to be worth the symbolic machinery: run the reference
		// dense solve and mark the right-hand side untracked.
		hsp.rowSpDirty = true
		s.ftranVec(b, out)
		return
	}
	s.orderReach(st, m)
	// Numeric pass in the dense (ascending) order with full segments: the
	// accumulation order matches ftranVec exactly on every reached step,
	// and unreached steps could only write signed zeros.
	hsp.vstamp++
	vs := hsp.vstamp
	for _, r := range hsp.rowSpPat {
		if int(r) < m {
			hsp.vmark[r] = vs
		}
	}
	for _, t := range hsp.reach {
		br := b[lu.prow[t]]
		//lint:ignore floatcmp exact zero skips a structurally empty L step
		if br == 0 {
			continue
		}
		for k := lu.lPtr[t]; k < lu.lPtr[t+1]; k++ {
			r := lu.lRow[k]
			b[r] -= lu.lVal[k] * br
			if hsp.vmark[r] != vs {
				hsp.vmark[r] = vs
				hsp.rowSpPat = append(hsp.rowSpPat, r)
			}
		}
	}

	// U pass. Reach: the steps owning b's (now fuller) pattern rows, closed
	// under "step t's result position is read by its U consumers". Skipped
	// outright for patterns past the seed gate — see hsFtranSeedDenom.
	if len(hsp.rowSpPat)*hsFtranSeedDenom > m {
		for t := m - 1; t >= 0; t-- {
			v := b[lu.prow[t]]
			for k := lu.uPtr[t]; k < lu.uPtr[t+1]; k++ {
				v -= lu.uVal[k] * out[lu.uPos[k]]
			}
			//lint:ignore nanguard factorization accepts only |pval| > pivotTol pivots
			out[lu.pcol[t]] = v / lu.pval[t]
		}
		for r := m; r < len(out); r++ {
			out[r] = b[r]
		}
		s.etas.applyFtran(out)
		return
	}
	hsp.stamp++
	st = hsp.stamp
	hsp.stack = hsp.stack[:0]
	hsp.reach = hsp.reach[:0]
	for _, r := range hsp.rowSpPat {
		if int(r) >= m {
			continue
		}
		if t := hsp.stepOfRow[r]; hsp.mark[t] != st {
			hsp.mark[t] = st
			hsp.stack = append(hsp.stack, t)
		}
	}
	for len(hsp.stack) > 0 && len(hsp.reach) <= limit {
		t := hsp.stack[len(hsp.stack)-1]
		hsp.stack = hsp.stack[:len(hsp.stack)-1]
		hsp.reach = append(hsp.reach, t)
		p := lu.pcol[t]
		for k := hsp.uConsPtr[p]; k < hsp.uConsPtr[p+1]; k++ {
			if nt := hsp.uConsIdx[k]; hsp.mark[nt] != st {
				hsp.mark[nt] = st
				hsp.stack = append(hsp.stack, nt)
			}
		}
	}
	if len(hsp.reach) > limit {
		// Dense completion: full U pass, borders, dense eta application.
		for t := m - 1; t >= 0; t-- {
			v := b[lu.prow[t]]
			for k := lu.uPtr[t]; k < lu.uPtr[t+1]; k++ {
				v -= lu.uVal[k] * out[lu.uPos[k]]
			}
			//lint:ignore nanguard factorization accepts only |pval| > pivotTol pivots
			out[lu.pcol[t]] = v / lu.pval[t]
		}
		for r := m; r < len(out); r++ {
			out[r] = b[r]
		}
		s.etas.applyFtran(out)
		return
	}
	s.orderReach(st, m)
	// The sparse tail writes only the reached positions, so restore out's
	// all-zero ground state first. One straight memset here is cheaper than
	// tracking out's pattern through the eta file ever was: the eta segments
	// fan the pattern out so fast that the bookkeeping dwarfed the clear it
	// existed to avoid.
	for i := range out {
		out[i] = 0
	}
	// Descending (dense) order with full segments; a reached step's reads
	// of unreached positions see true zeros where the dense pass saw
	// signed zeros.
	for i := len(hsp.reach) - 1; i >= 0; i-- {
		t := hsp.reach[i]
		v := b[lu.prow[t]]
		for k := lu.uPtr[t]; k < lu.uPtr[t+1]; k++ {
			v -= lu.uVal[k] * out[lu.uPos[k]]
		}
		//lint:ignore nanguard factorization accepts only |pval| > pivotTol pivots
		out[lu.pcol[t]] = v / lu.pval[t]
	}
	for _, r := range hsp.rowSpPat {
		if int(r) >= m {
			out[r] = b[r]
		}
	}
	s.etas.applyFtran(out)
}

// btranRowSparse computes row r of Binv from the unit seed e_r, tracking the
// position-space pattern through the reversed etas and the factor
// transposes, or by the dense reference solve on small bases and when the
// running density average predicts a dense row. It is the eta engine's
// btranRow.
func (s *Solver) btranRowSparse(r int) []float64 {
	hsp := &s.hs
	w := s.growPosSp()
	s.clearScratch(w, &hsp.posSpPat, &hsp.posSpDirty)
	w[r] = 1
	small := s.lu.m < hsMinDim
	if small || hsp.btranDens > hsDensityMax {
		// Dense reference path; both scratch vectors leave untracked.
		hsp.posSpDirty = true
		hsp.rhoDirty = true
		z := s.btranEta(w)
		if !small {
			hsp.btranDens = trackDensity(hsp.btranDens, countNonzeros(z), len(z))
		}
		return z
	}
	s.ensureHS()
	hsp.posSpPat = append(hsp.posSpPat, int32(r))
	s.applyBtranSparse(w)
	z := s.btranFactorsSparse(w)
	nz := len(hsp.rhoPat)
	if hsp.rhoDirty {
		nz = countNonzeros(z)
	}
	hsp.btranDens = trackDensity(hsp.btranDens, nz, len(z))
	return z
}

// applyBtranSparse is etaFile.applyBtran tracking w's pattern
// (s.hs.posSpPat). Pivot-op accumulators still scan their full segments —
// exactly what the dense pass does — so only the writes go sparse.
func (s *Solver) applyBtranSparse(w []float64) {
	e := &s.etas
	hsp := &s.hs
	if len(e.r) == 0 {
		return
	}
	hsp.vstamp++
	vs := hsp.vstamp
	for _, i := range hsp.posSpPat {
		hsp.vmark[i] = vs
	}
	for t := len(e.r) - 1; t >= 0; t-- {
		if e.kind[t] == etaOpBorder {
			zt := w[e.r[t]]
			//lint:ignore floatcmp an exactly zero border component writes only a signed zero densely
			if zt == 0 {
				continue
			}
			//lint:ignore nanguard border diagonals are ±1 by construction (AddCut logicals)
			zt /= e.piv[t]
			//lint:ignore floatcmp exact zero skips a structurally empty border step
			if zt != 0 {
				for k := e.ptr[t]; k < e.ptr[t+1]; k++ {
					p := e.pos[k]
					w[p] -= e.val[k] * zt
					if hsp.vmark[p] != vs {
						hsp.vmark[p] = vs
						hsp.posSpPat = append(hsp.posSpPat, p)
					}
				}
			}
			// w[r] was nonzero, so r is already in the pattern.
			w[e.r[t]] = zt
			continue
		}
		acc := w[e.r[t]]
		for k := e.ptr[t]; k < e.ptr[t+1]; k++ {
			acc -= e.val[k] * w[e.pos[k]]
		}
		//lint:ignore floatcmp exact zero writes only a signed zero densely
		if acc != 0 {
			//lint:ignore nanguard pivots pass the ratio-test magnitude bound at append time
			w[e.r[t]] = acc / e.piv[t]
			if rr := e.r[t]; hsp.vmark[rr] != vs {
				hsp.vmark[rr] = vs
				hsp.posSpPat = append(hsp.posSpPat, rr)
			}
			continue
		}
		//lint:ignore floatcmp the accumulator cancelled; densely this zeroes a previously nonzero entry
		if w[e.r[t]] != 0 {
			w[e.r[t]] = 0
		}
	}
}

// btranFactorsSparse finishes a BTRAN after the reversed etas: U^T forward
// and L^T backward over the symbolic reach of w's pattern, producing the
// row-space result in (and aliasing) the rho scratch with its pattern in
// s.hs.rhoPat.
func (s *Solver) btranFactorsSparse(w []float64) []float64 {
	lu := &s.lu
	hsp := &s.hs
	m := lu.m
	if !hsp.transOK {
		s.buildTrans()
	}
	z := s.growRho()
	s.clearScratch(z, &hsp.rhoPat, &hsp.rhoDirty)
	// Border rows bypass the factors: their components were finalized by
	// the reversed border ops.
	for _, p := range hsp.posSpPat {
		if int(p) >= m {
			z[p] = w[p]
			hsp.rhoPat = append(hsp.rhoPat, p)
		}
	}

	// U^T pass (ascending). Reach: the steps owning the pattern positions,
	// closed under "step t writes the positions its U segment references".
	// As in the FTRAN passes, the walk aborts past the density cutoff.
	limit := m / hyperSparseDenom
	hsp.stamp++
	st := hsp.stamp
	hsp.stack = hsp.stack[:0]
	hsp.reach = hsp.reach[:0]
	for _, p := range hsp.posSpPat {
		if int(p) >= m {
			continue
		}
		if t := hsp.stepOfPos[p]; hsp.mark[t] != st {
			hsp.mark[t] = st
			hsp.stack = append(hsp.stack, t)
		}
	}
	for len(hsp.stack) > 0 && len(hsp.reach) <= limit {
		t := hsp.stack[len(hsp.stack)-1]
		hsp.stack = hsp.stack[:len(hsp.stack)-1]
		hsp.reach = append(hsp.reach, t)
		for k := lu.uPtr[t]; k < lu.uPtr[t+1]; k++ {
			if nt := hsp.stepOfPos[lu.uPos[k]]; hsp.mark[nt] != st {
				hsp.mark[nt] = st
				hsp.stack = append(hsp.stack, nt)
			}
		}
	}
	if len(hsp.reach) > limit {
		// Dense completion of both factor passes; w and z go untracked.
		hsp.posSpDirty = true
		hsp.rhoDirty = true
		for t := 0; t < m; t++ {
			//lint:ignore nanguard factorization accepts only |pval| > pivotTol pivots
			zt := w[lu.pcol[t]] / lu.pval[t]
			z[lu.prow[t]] = zt
			//lint:ignore floatcmp exact zero skips a structurally empty U^T step
			if zt == 0 {
				continue
			}
			for k := lu.uPtr[t]; k < lu.uPtr[t+1]; k++ {
				w[lu.uPos[k]] -= lu.uVal[k] * zt
			}
		}
		for t := m - 1; t >= 0; t-- {
			var acc float64
			for k := lu.lPtr[t]; k < lu.lPtr[t+1]; k++ {
				acc += lu.lVal[k] * z[lu.lRow[k]]
			}
			//lint:ignore floatcmp exact zero skips a no-op correction
			if acc != 0 {
				z[lu.prow[t]] -= acc
			}
		}
		return z
	}
	s.orderReach(st, m)
	hsp.vstamp++
	vs := hsp.vstamp
	for _, p := range hsp.posSpPat {
		if int(p) < m {
			hsp.vmark[p] = vs
		}
	}
	for _, t := range hsp.reach {
		//lint:ignore nanguard factorization accepts only |pval| > pivotTol pivots
		zt := w[lu.pcol[t]] / lu.pval[t]
		//lint:ignore floatcmp exact zero writes only a signed zero densely
		if zt == 0 {
			continue
		}
		z[lu.prow[t]] = zt
		hsp.rhoPat = append(hsp.rhoPat, lu.prow[t])
		for k := lu.uPtr[t]; k < lu.uPtr[t+1]; k++ {
			p := lu.uPos[k]
			w[p] -= lu.uVal[k] * zt
			if hsp.vmark[p] != vs {
				hsp.vmark[p] = vs
				hsp.posSpPat = append(hsp.posSpPat, p)
			}
		}
	}

	// L^T pass (descending). Reach: every step whose L segment touches a
	// nonzero z row, closed under "step t rewrites row prow[t]".
	hsp.stamp++
	st = hsp.stamp
	hsp.stack = hsp.stack[:0]
	hsp.reach = hsp.reach[:0]
	push := func(r int32) {
		for k := hsp.lConsPtr[r]; k < hsp.lConsPtr[r+1]; k++ {
			if nt := hsp.lConsIdx[k]; hsp.mark[nt] != st {
				hsp.mark[nt] = st
				hsp.stack = append(hsp.stack, nt)
			}
		}
	}
	for _, r := range hsp.rhoPat {
		if int(r) < m {
			push(r)
		}
	}
	for len(hsp.stack) > 0 && len(hsp.reach) <= limit {
		t := hsp.stack[len(hsp.stack)-1]
		hsp.stack = hsp.stack[:len(hsp.stack)-1]
		hsp.reach = append(hsp.reach, t)
		push(lu.prow[t])
	}
	if len(hsp.reach) > limit {
		hsp.rhoDirty = true
		for t := m - 1; t >= 0; t-- {
			var acc float64
			for k := lu.lPtr[t]; k < lu.lPtr[t+1]; k++ {
				acc += lu.lVal[k] * z[lu.lRow[k]]
			}
			//lint:ignore floatcmp exact zero skips a no-op correction
			if acc != 0 {
				z[lu.prow[t]] -= acc
			}
		}
		return z
	}
	s.orderReach(st, m)
	hsp.vstamp++
	vs = hsp.vstamp
	for _, r := range hsp.rhoPat {
		if int(r) < m {
			hsp.vmark[r] = vs
		}
	}
	for i := len(hsp.reach) - 1; i >= 0; i-- {
		t := hsp.reach[i]
		var acc float64
		for k := lu.lPtr[t]; k < lu.lPtr[t+1]; k++ {
			acc += lu.lVal[k] * z[lu.lRow[k]]
		}
		//lint:ignore floatcmp exact zero skips a no-op correction
		if acc != 0 {
			r := lu.prow[t]
			z[r] -= acc
			if hsp.vmark[r] != vs {
				hsp.vmark[r] = vs
				hsp.rhoPat = append(hsp.rhoPat, r)
			}
		}
	}
	return z
}
