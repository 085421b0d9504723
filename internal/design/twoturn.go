package design

import (
	"context"
	"fmt"
	"math"

	"tcr/internal/eval"
	"tcr/internal/lp"
	"tcr/internal/paths"
	"tcr/internal/routing"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// PathFamily enumerates a closed-form path set per pair; the design LPs
// optimize the probability weighting over it (the 2TURN idea of Section 5.2:
// abandon a closed-form *algorithm* but keep closed-form *paths*).
type PathFamily func(t *topo.Torus, s, d topo.Node) []paths.Path

// PathLP is a path-based routing design problem over a family of candidate
// paths from the canonical source to every relative destination, with
// constraint-generated worst-case or average-case load bounds. It runs on
// the same driver, cut log and checkpoints as the flow formulations; its
// cut entries apply in path variables.
type PathLP struct {
	cutLP
	T *topo.Torus
	// label names the path family in the checkpoint signature.
	label string

	rels   []topo.Node // relative destinations, 1..N-1
	pths   [][]paths.Path
	chBits [][][]uint64 // [relIdx][pathIdx] channel bitset
	varOf  [][]lp.VarID
	lens   [][]int

	tVars   []lp.VarID
	samples []*traffic.Matrix
}

// NewPathLP enumerates the family and builds the base LP (distribution rows
// per destination, objective min w or min mean(t) when samples are given).
// It fails if the family produces no path for some destination: the caller
// supplies the family, so an empty one is a data condition, not a bug.
// Sampled path LPs carry dense-pattern cuts and never checkpoint, so their
// snapshot options are cleared.
func NewPathLP(t *topo.Torus, family PathFamily, samples []*traffic.Matrix, withLocality bool, opts Options) (*PathLP, error) {
	p := &PathLP{T: t, samples: samples}
	p.cutLP = cutLP{form: p, n: t.N, hRow: -1, wCap: math.NaN(), opts: opts}
	words := (t.C + 63) / 64
	m := lp.NewModel()
	for rel := 1; rel < t.N; rel++ {
		ps := family(t, 0, topo.Node(rel))
		if len(ps) == 0 {
			return nil, fmt.Errorf("design: empty path family for destination %d", rel)
		}
		vars := make([]lp.VarID, len(ps))
		bits := make([][]uint64, len(ps))
		lens := make([]int, len(ps))
		for i, path := range ps {
			vars[i] = m.AddVar(0, "")
			b := make([]uint64, words)
			for _, c := range path.Channels(t) {
				b[int(c)/64] |= 1 << (uint(c) % 64)
			}
			bits[i] = b
			lens[i] = path.Len()
		}
		p.rels = append(p.rels, topo.Node(rel))
		p.pths = append(p.pths, ps)
		p.chBits = append(p.chBits, bits)
		p.varOf = append(p.varOf, vars)
		p.lens = append(p.lens, lens)
	}
	p.wVar = m.AddVar(0, "w")
	if samples == nil {
		m.SetObj(p.wVar, 1)
		p.seps = t.TransGroup().ChanOrbitReps()
		p.blocks = addPotentialBlocks(m, t, p.seps, p.wVar)
	} else {
		p.opts.Checkpoint, p.opts.WarmFrom, p.opts.FinalSnapshot = "", "", ""
		inv := 1 / float64(len(samples))
		p.tVars = make([]lp.VarID, len(samples))
		for i := range samples {
			p.tVars[i] = m.AddVar(inv, fmt.Sprintf("t[%d]", i))
		}
	}

	// Unit-distribution rows.
	for ri := range p.rels {
		terms := make([]lp.Term, len(p.varOf[ri]))
		for i, v := range p.varOf[ri] {
			terms[i] = lp.Term{Var: v, Coef: 1}
		}
		m.AddRow(terms, lp.EQ, 1, "")
	}
	if withLocality {
		var terms []lp.Term
		for ri := range p.rels {
			for i, v := range p.varOf[ri] {
				if p.lens[ri][i] != 0 {
					terms = append(terms, lp.Term{Var: v, Coef: float64(p.lens[ri][i])})
				}
			}
		}
		p.hRow = m.AddRow(terms, lp.LE, float64(t.N)*t.MeanMinDist(), "H")
		p.hasH = true
	}
	p.model = m
	// Path LPs have enormous, harmless optimal faces (any optimal vertex
	// is an equally valid probability weighting); the anti-degeneracy cost
	// jitter would make the simplex chase a noise-optimal vertex across
	// that face, so every solver of this LP runs with it off.
	p.noJitter = true
	p.rebuildSolver()
	return p, nil
}

// apply replays one cut-log entry in path variables. The stage-2 cap bounds
// w on a worst-case path LP and the mean of the t variables on a sampled
// one; the objective flip zeroes whichever of them stage 1 minimized.
func (p *PathLP) apply(e cutEntry) {
	switch e.Kind {
	case cutPair:
		b := p.blocks[e.Block]
		p.solver.AddCut(p.pairRowTerms(b, e.S, e.D), lp.LE, 0)
		b.added[e.S*p.n+e.D] = true
	case cutMatrix:
		p.solver.AddCut(p.matrixCutTerms(topo.Channel(e.Ch), e.mat, lp.VarID(e.Bound)), lp.LE, 0)
	case cutCapW:
		if p.samples == nil {
			// A variable bound, not a cut row: bounded-simplex state
			// instead of one more basis row.
			p.solver.SetVarUpper(p.wVar, e.Val)
			p.wCap = e.Val
			return
		}
		inv := 1 / float64(len(p.samples))
		terms := make([]lp.Term, len(p.tVars))
		for i, v := range p.tVars {
			terms[i] = lp.Term{Var: v, Coef: inv}
		}
		p.solver.AddCut(terms, lp.LE, e.Val)
	case cutObjLen:
		for ri := range p.rels {
			for i, v := range p.varOf[ri] {
				p.solver.SetObjCoef(v, float64(p.lens[ri][i]))
			}
		}
		if p.samples == nil {
			p.solver.SetObjCoef(p.wVar, 0)
		}
		for _, v := range p.tVars {
			p.solver.SetObjCoef(v, 0)
		}
	case cutLoc:
		p.solver.SetRHS(int(p.hRow), e.Val*float64(p.T.N)*p.T.MeanMinDist())
	}
}

// separate maps the LP solution to its flow and runs the average-case
// separation on a sampled path LP, the worst-case one otherwise. Unlike the
// flow formulation (whose conservation base is large), the path LP's base
// is only one row per destination, so growing every violated block each
// round is cheap and cuts round count. Aggregate permutation cuts are NOT
// added here: their rows are dense in path variables and bloat every
// subsequent pricing pass.
func (p *PathLP) separate(ctx context.Context, sol *lp.Solution) (verdict, error) {
	flow := p.flowOf(sol.X)
	if p.samples != nil {
		return p.separateSamples(ctx, sol, flow, p.samples, p.tVars)
	}
	return p.separateWorst(ctx, sol, flow, rowPolicy{rows: 48})
}

// pathUses reports whether path (ri, i) crosses channel c.
func (p *PathLP) pathUses(ri, i int, c topo.Channel) bool {
	return p.chBits[ri][i][int(c)/64]&(1<<(uint(c)%64)) != 0
}

// relIndex maps a relative destination node to its slice index (rel-1).
func (p *PathLP) relIndex(rel topo.Node) int { return int(rel) - 1 }

// matrixCutTerms builds gamma_c(R, Lambda) <= bound for a dense pattern.
func (p *PathLP) matrixCutTerms(c topo.Channel, lam *traffic.Matrix, bound lp.VarID) []lp.Term {
	t := p.T
	var terms []lp.Term
	ux, uy := t.Coord(t.ChanSrc(c))
	dir := t.ChanDir(c)
	for s := 0; s < t.N; s++ {
		sx, sy := t.Coord(topo.Node(s))
		tc := t.Chan(t.NodeAt(ux-sx, uy-sy), dir)
		for d := 0; d < t.N; d++ {
			//lint:ignore floatcmp sparsity skip: entries never written stay exactly 0
			if s == d || lam.L[s][d] == 0 {
				continue
			}
			rx, ry := t.Rel(topo.Node(s), topo.Node(d))
			ri := p.relIndex(t.NodeAt(rx, ry))
			for i, v := range p.varOf[ri] {
				if p.pathUses(ri, i, tc) {
					terms = append(terms, lp.Term{Var: v, Coef: lam.L[s][d]})
				}
			}
		}
	}
	return append(terms, lp.Term{Var: bound, Coef: -1})
}

// table converts an LP solution into a routing table (dropping
// zero-probability paths and renormalizing away LP tolerance dust).
func (p *PathLP) table(x []float64, label string) *routing.Table {
	dist := make(map[topo.Node][]paths.Weighted, len(p.rels))
	for ri, rel := range p.rels {
		var ws []paths.Weighted
		var sum float64
		for i, v := range p.varOf[ri] {
			if pr := x[v]; pr > pathProbFloor {
				ws = append(ws, paths.Weighted{Path: p.pths[ri][i], Prob: pr})
				sum += pr
			}
		}
		for i := range ws {
			ws[i].Prob /= sum
		}
		dist[rel] = ws
	}
	return &routing.Table{Label: label, Dist: dist}
}

// flowOf builds the flow table of an LP solution.
func (p *PathLP) flowOf(x []float64) *eval.Flow {
	f := eval.NewFlow(p.T)
	for ri, rel := range p.rels {
		for i, v := range p.varOf[ri] {
			pr := x[v]
			//lint:ignore floatcmp sparsity skip: nonbasic LP variables are exactly 0
			if pr == 0 {
				continue
			}
			for _, c := range p.pths[ri][i].Channels(p.T) {
				f.X[rel][c] += pr
			}
		}
	}
	return f
}

// PathResult is a path-based design's Result plus its executable routing
// table. Objective is the final stage's LP objective (total path length)
// for 2TURN and the mean maximum load for 2TURNA; an uncertified result
// carries the best iterate's table.
type PathResult struct {
	Result
	Table *routing.Table
}

// pairRowTerms builds the lazy potential constraint
// load_{s,d}(c) - u_s - v_d <= 0 in path variables.
func (p *PathLP) pairRowTerms(b *potBlock, s, d int) []lp.Term {
	t := p.T
	ux, uy := t.Coord(t.ChanSrc(b.ch))
	sx, sy := t.Coord(topo.Node(s))
	tc := t.Chan(t.NodeAt(ux-sx, uy-sy), t.ChanDir(b.ch))
	rx, ry := t.Rel(topo.Node(s), topo.Node(d))
	ri := p.relIndex(t.NodeAt(rx, ry))
	var terms []lp.Term
	for i, v := range p.varOf[ri] {
		if p.pathUses(ri, i, tc) {
			terms = append(terms, lp.Term{Var: v, Coef: 1})
		}
	}
	return append(terms,
		lp.Term{Var: b.u + lp.VarID(s), Coef: -1},
		lp.Term{Var: b.v + lp.VarID(d), Coef: -1},
	)
}

// DesignTwoTurn produces the 2TURN algorithm (Section 5.2): over all
// at-most-two-turn paths, first minimize worst-case channel load, then
// minimize average path length while keeping the worst case within
// Options.Slack of optimal. Budgets degrade as for MinLocalityAtWorstCase:
// an uncertified result names its stage.
func DesignTwoTurn(t *topo.Torus, opts Options) (*PathResult, error) {
	return DesignTwoTurnCtx(context.Background(), t, opts)
}

// DesignTwoTurnCtx is DesignTwoTurn under a cancellation context.
func DesignTwoTurnCtx(ctx context.Context, t *topo.Torus, opts Options) (*PathResult, error) {
	return designPath(ctx, t, paths.TwoTurnPaths, "2TURN", nil, opts)
}

// DesignTwoTurnAvg produces the 2TURNA algorithm (Section 5.4): over the
// two-turn paths, first maximize (approximate) average-case throughput on
// the sample, then maximize locality at that throughput.
func DesignTwoTurnAvg(t *topo.Torus, samples []*traffic.Matrix, opts Options) (*PathResult, error) {
	return DesignTwoTurnAvgCtx(context.Background(), t, samples, opts)
}

// DesignTwoTurnAvgCtx is DesignTwoTurnAvg under a cancellation context.
func DesignTwoTurnAvgCtx(ctx context.Context, t *topo.Torus, samples []*traffic.Matrix, opts Options) (*PathResult, error) {
	return designPath(ctx, t, paths.TwoTurnPaths, "2TURNA", samples, opts)
}

// DesignMinimalAvg runs the 2TURNA construction restricted to minimal
// paths; Section 5.4 observes the result matches ROMM's performance.
func DesignMinimalAvg(t *topo.Torus, samples []*traffic.Matrix, opts Options) (*PathResult, error) {
	return designPath(context.Background(), t, paths.MinimalTwoTurnPaths, "MIN-AVG", samples, opts)
}

// designPath is the two-stage path design: first optimize the load (the
// worst case, or the sampled mean maximum when samples are given), then
// minimize total path length with that load capped within Options.Slack.
func designPath(ctx context.Context, t *topo.Torus, family PathFamily, label string, samples []*traffic.Matrix, opts Options) (*PathResult, error) {
	p, err := NewPathLP(t, family, samples, false, opts)
	if err != nil {
		return nil, err
	}
	p.label = label
	res, err := lexicographic(
		func() (*Result, error) { return p.solve(ctx) },
		func(stage1 *Result) (*Result, error) {
			// Stage 2 caps w at its solved value, or the mean of the t
			// variables at the stage-1 objective.
			load := stage1.Objective
			if samples == nil {
				load = p.x[p.wVar]
			}
			p.ckptStage = 2
			p.record(cutEntry{Kind: cutCapW, Val: load * (1 + opts.slack())})
			p.record(cutEntry{Kind: cutObjLen})
			return p.solve(ctx)
		})
	if err != nil {
		return nil, err
	}
	if samples != nil && res.Certified {
		// Report the stage-1 objective (mean max load) as the result
		// objective.
		inv := 1 / float64(len(samples))
		var mean float64
		for _, v := range p.tVars {
			mean += p.x[v] * inv
		}
		res.Objective = mean
	}
	return &PathResult{Result: *res, Table: p.table(p.x, label)}, nil
}
