package design

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"tcr/internal/eval"
	"tcr/internal/lp"
	"tcr/internal/matching"
	"tcr/internal/par"
	"tcr/internal/topo"
)

// This file implements the paper's worst-case LP (8) directly: for each
// representative channel c, dual "potential" variables u_{s,c} and v_{d,c}
// bound every pair's load (the third constraint block of (8)) and their sum
// bounds w (the fourth block). By Birkhoff/König duality, the minimum of
// sum(u)+sum(v) subject to u_s + v_d >= load_{s,d}(c) equals the
// maximum-weight matching, i.e. the worst permutation load on c, so
// minimizing w yields exactly gamma_wc.
//
// Translation symmetry reduces the channel set to one representative per
// channel orbit of the translation subgroup (the O(CN) -> O(N) collapse of
// Section 4: one per direction on the torus families, every channel on a
// family without translations); the pair constraint blocks, which would be
// |reps| N^2 rows, are generated lazily -- only pairs whose load exceeds the
// current potentials enter the LP. The Hungarian oracle then certifies
// optimality exactly.

// potBlock is the potential-variable block of one representative channel.
type potBlock struct {
	idx int // index in FlowLP.blocks, recorded in cut-log pair entries
	ch  topo.Channel
	// u and v are the first of N consecutive variables each. Because
	// channel loads are nonnegative, the matching dual may be restricted
	// to nonnegative potentials (the dual of the <=-relaxed assignment
	// LP), which keeps the LP free of mirrored free-variable columns.
	u, v  lp.VarID
	added map[int]bool // s*N+d pairs already constrained
}

// addPotentialBlocks extends the model with potential variables and the sum
// rows sum(u)+sum(v) <= w for each of the LP's separation representatives
// (p.seps — full-group channel orbits when the symmetrized non-transitive
// folding is active, translation orbits otherwise). Must run before the
// solver is constructed.
func (p *FlowLP) addPotentialBlocks(m *lp.Model) []*potBlock {
	return potentialBlocksFor(m, p.T, p.seps, p.wVar)
}

// addPotentialBlocks is the formulation-independent block builder: one block
// per channel-orbit representative of the topology's translation subgroup.
func addPotentialBlocks(m *lp.Model, t topo.Topology, wVar lp.VarID) []*potBlock {
	return potentialBlocksFor(m, t, t.TransGroup().ChanOrbitReps(), wVar)
}

// potentialBlocksFor builds one potential block per given representative.
func potentialBlocksFor(m *lp.Model, t topo.Topology, reps []topo.Channel, wVar lp.VarID) []*potBlock {
	n := t.Nodes()
	blocks := make([]*potBlock, 0, len(reps))
	for bi, ch := range reps {
		b := &potBlock{idx: bi, ch: ch, added: make(map[int]bool)}
		b.u = m.AddVars(n)
		b.v = m.AddVars(n)
		terms := make([]lp.Term, 0, 2*n+1)
		for i := 0; i < n; i++ {
			terms = append(terms,
				lp.Term{Var: b.u + lp.VarID(i), Coef: 1},
				lp.Term{Var: b.v + lp.VarID(i), Coef: 1},
			)
		}
		terms = append(terms, lp.Term{Var: wVar, Coef: -1})
		m.AddRow(terms, lp.LE, 0, fmt.Sprintf("potsum[%v]", blockLabel(t, ch)))
		blocks = append(blocks, b)
	}
	return blocks
}

// blockLabel names a potential block's sum row: the direction on the 2D
// torus (preserving the historical row names), the channel index elsewhere.
func blockLabel(t topo.Topology, ch topo.Channel) any {
	if tt, ok := t.(*topo.Torus); ok {
		return tt.ChanDir(ch)
	}
	return int(ch)
}

// pairRow adds the lazy constraint load_{s,d}(c) - u_s - v_d <= 0.
func (p *FlowLP) pairRow(b *potBlock, s, d int) {
	p.record(cutEntry{Kind: cutPair, Block: b.idx, S: s, D: d})
}

// pairRowTerms builds a lazy pair row's terms.
func (p *FlowLP) pairRowTerms(b *potBlock, s, d int) []lp.Term {
	return []lp.Term{
		{Var: p.pairLoadVar(s, d, b.ch), Coef: 1},
		{Var: b.u + lp.VarID(s), Coef: -1},
		{Var: b.v + lp.VarID(d), Coef: -1},
	}
}

// violatedPairs selects pair rows to add for a block: for every source the
// most violated destination and for every destination the most violated
// source (deduplicated, ordered by decreasing violation). This covers the
// whole bipartite structure each round -- the matching dual needs roughly
// one tight row per source and destination -- instead of letting the most
// violated entries crowd into a few rows of the load matrix.
func violatedPairs(n int, b *potBlock, x []float64, load [][]float64, tol float64) []int {
	type viol struct {
		idx int
		by  float64
	}
	viols := make(map[int]float64)
	for s := 0; s < n; s++ {
		us := x[b.u+lp.VarID(s)]
		bestIdx, bestBy := -1, tol
		for d := 0; d < n; d++ {
			if s == d || b.added[s*n+d] {
				continue
			}
			if by := load[s][d] - us - x[b.v+lp.VarID(d)]; by > bestBy {
				bestBy, bestIdx = by, s*n+d
			}
		}
		if bestIdx >= 0 {
			viols[bestIdx] = bestBy
		}
	}
	for d := 0; d < n; d++ {
		vd := x[b.v+lp.VarID(d)]
		bestIdx, bestBy := -1, tol
		for s := 0; s < n; s++ {
			if s == d || b.added[s*n+d] {
				continue
			}
			if by := load[s][d] - x[b.u+lp.VarID(s)] - vd; by > bestBy {
				bestBy, bestIdx = by, s*n+d
			}
		}
		if bestIdx >= 0 {
			viols[bestIdx] = bestBy
		}
	}
	vs := make([]viol, 0, len(viols))
	for idx, by := range viols {
		vs = append(vs, viol{idx, by})
	}
	sort.Slice(vs, func(i, j int) bool {
		//lint:ignore floatcmp ordering comparator: exact != only decides whether to fall through to the index tiebreak
		if vs[i].by != vs[j].by {
			return vs[i].by > vs[j].by
		}
		return vs[i].idx < vs[j].idx
	})
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = v.idx
	}
	return out
}

// potentialLP marks a FlowLP built with potential blocks (FlowLP.blocks).
type potentialLP struct {
	*FlowLP
}

// newPotentialLP builds the worst-case design LP in the paper's form (8),
// with lazily generated pair rows.
func newPotentialLP(t topo.Topology, withLocality bool, opts Options) *potentialLP {
	p := newBareFlowLP(t, opts)
	m, blocks := p.potentialModel(withLocality)
	p.model = m
	p.newModel = func() *lp.Model {
		m, _ := newBareFlowLP(t, opts).potentialModel(withLocality)
		return m
	}
	p.solver = lp.NewSolver(m)
	p.blocks = blocks
	return &potentialLP{FlowLP: p}
}

// potentialModel builds the base model of LP (8) — flow variables, the load
// variable, the potential blocks, conservation, symmetry and the optional
// locality row — setting p's variable and row handles on the way.
func (p *FlowLP) potentialModel(withLocality bool) (*lp.Model, []*potBlock) {
	m := lp.NewModel()
	p.addFlowVars(m)
	p.wVar = m.AddVar(1, "w")
	blocks := p.addPotentialBlocks(m)
	p.addConservation(m, false)
	p.addSymmetry(m)
	if withLocality {
		p.addLocalityRow(m)
	}
	return m, blocks
}

// maxRowsPerBlockRound caps how many lazy pair rows enter per block per
// round, trading round count against LP growth. violatedPairs proposes at
// most 2N rows; this cap keeps the very first rounds lean.
const maxRowsPerBlockRound = 128

// solve runs the lazy-row loop: solve, add the most violated pair rows per
// block, and finish when the Hungarian oracle certifies the bound. The
// boundVar-capped variant (stage 2) passes a fixed numeric bound instead of
// reading w from the solution.
//
// The per-block pair-load matrices and Hungarian matchings are independent
// and run on Options.Workers goroutines; the certification scan and the row
// additions that follow read the per-block slots in block order, so the cut
// sequence is identical for every worker count.
//
// Each round's LP solve goes through the retry ladder (cutlog.go), the loop
// checkpoints its state per Options.Checkpoint, and exhausted budgets
// degrade to the best iterate seen rather than failing (design.go: degrade).
func (q *potentialLP) solve(ctx context.Context, fixedBound float64) (*Result, error) {
	p := q.FlowLP
	tol := p.opts.tol()
	res := &Result{}
	loads := make([][][]float64, len(p.blocks))
	perms := make([][]int, len(p.blocks))
	gammas := make([]float64, len(p.blocks))
	startRound, cumIters := 0, 0
	if r, it, ok := p.restoreCheckpoint(); ok {
		startRound, cumIters = r, it
	} else {
		p.restoreWarmStart()
	}
	// From here only a retry rebuilds the solver, and it can rebuild the
	// base model too: keeping it would hold a second copy of the matrix
	// through every round.
	p.model = nil
	var bestFlow *eval.Flow
	var bestObj, bestGW float64
	for round := startRound; round < p.opts.rounds(); round++ {
		res.Rounds, res.Iterations = round, cumIters
		if err := ctx.Err(); err != nil {
			if errors.Is(err, context.Canceled) {
				return nil, err
			}
			return degrade(res, bestFlow, bestObj, bestGW, err)
		}
		sol, err := p.solveRound(ctx)
		if err != nil {
			return nil, err
		}
		if sol.Status == lp.IterLimit {
			if err := ctx.Err(); errors.Is(err, context.Canceled) {
				return nil, err
			}
			return degrade(res, bestFlow, bestObj, bestGW,
				fmt.Errorf("simplex budget exhausted at round %d (%s)", round, sol.Diag.Summary()))
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("design: potential LP status %v at round %d", sol.Status, round)
		}
		cumIters += sol.Iterations
		res.Refactorizations += sol.Diag.Refactorizations
		res.Rounds, res.Iterations = round+1, cumIters
		flow := p.unfold(sol.X)
		bound := fixedBound
		if math.IsNaN(bound) {
			bound = sol.X[p.wVar]
		}
		// Certify every block with the Hungarian oracle, then add lazy
		// rows only for the worst-violated block: under the symmetry
		// folding the representative blocks are near-copies, and feeding
		// them all every round multiplies the LP for no information.
		err = p.separate(ctx, func() error {
			return par.Do(ctx, len(p.blocks), p.opts.Workers, func(bi int) error {
				if err := oracleFault(); err != nil {
					return err
				}
				loads[bi] = pairLoadMatrix(flow, p.blocks[bi].ch)
				perm, g, err := matching.MaxWeightAssignment(loads[bi])
				if err != nil {
					return err
				}
				perms[bi], gammas[bi] = perm, g
				return nil
			})
		})
		if err != nil {
			return nil, err
		}
		gw := gammas[0]
		for _, g := range gammas[1:] {
			gw = math.Max(gw, g)
		}
		if bestFlow == nil || gw < bestGW {
			bestFlow, bestObj, bestGW = flow, sol.Objective, gw
		}
		certified := true
		limit := bound + tol*math.Max(1, bound)
		worstBlock, worstG := -1, limit
		for bi := range p.blocks {
			if gammas[bi] > limit {
				certified = false
			}
			if gammas[bi] > worstG {
				worstG, worstBlock = gammas[bi], bi
			}
		}
		if certified {
			res.Flow = flow
			res.Objective = sol.Objective
			res.Certified = true
			res.GammaWC, _, err = flow.WorstCaseCtx(ctx, p.opts.Workers)
			if err != nil {
				return nil, err
			}
			res.HAvg = flow.HAvg()
			res.HNorm = flow.HNorm()
			if err := p.writeFinalSnapshot(res.Rounds, res.Iterations); err != nil {
				return nil, err
			}
			if err := p.clearCheckpoint(); err != nil {
				return nil, err
			}
			return res, nil
		}
		progressed := false
		if p.T.VertexTransitive() {
			if worstBlock >= 0 {
				b := p.blocks[worstBlock]
				// One aggregate permutation cut moves the bound immediately;
				// the pair rows supply the matching-dual structure. Under the
				// symmetry folding the representative blocks are near-copies,
				// so feeding only the worst one each round keeps the LP lean
				// without slowing convergence.
				p.permCut(b.ch, perms[worstBlock], p.wVar)
				for i, idx := range violatedPairs(p.n, b, sol.X, loads[worstBlock], tol) {
					if i >= maxRowsPerBlockRound {
						break
					}
					p.pairRow(b, idx/p.n, idx%p.n)
					progressed = true
				}
				progressed = true
			}
		} else {
			// Without translation symmetry every channel is its own block and
			// the blocks are genuinely independent, so starving all but the
			// worst one multiplies the round count by the channel count. Feed
			// every violated block.
			for bi, b := range p.blocks {
				if gammas[bi] <= limit {
					continue
				}
				p.permCut(b.ch, perms[bi], p.wVar)
				for i, idx := range violatedPairs(p.n, b, sol.X, loads[bi], tol) {
					if i >= maxRowsPerBlockRound {
						break
					}
					p.pairRow(b, idx/p.n, idx%p.n)
				}
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("design: oracle violated but no pair rows to add (numerical trouble)")
		}
		if (round+1)%p.opts.ckptEvery() == 0 {
			if err := p.writeCheckpoint(round+1, cumIters); err != nil {
				return nil, err
			}
		}
	}
	res.Rounds, res.Iterations = p.opts.rounds(), cumIters
	return degrade(res, bestFlow, bestObj, bestGW,
		fmt.Errorf("potential LP did not converge in %d rounds", p.opts.rounds()))
}
