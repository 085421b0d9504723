// Package design implements the routing-algorithm design problems of the
// paper as linear programs and solves them to global optimality:
//
//   - capacity (equation 6): minimize the maximum channel load under
//     uniform traffic;
//   - worst-case throughput (equations 7/8/10): minimize the worst channel
//     load over all permutation traffic, optionally under an average path
//     length budget H_avg <= L (the Pareto sweeps of Figure 1; the paper
//     writes H_avg = L, but with self commodities excluded the budget form
//     is the faithful Pareto semantics -- excess length would otherwise be
//     parked on self-pair paths that adversarial permutations never load);
//   - average-case throughput (equations 9/15): minimize the mean maximum
//     channel load over a fixed sample of doubly-stochastic matrices
//     (Figure 6);
//   - path-restricted designs over the two-turn path space (2TURN, 2TURNA,
//     Section 5.2/5.4).
//
// Instead of the appendix's monolithic dual reformulation, the worst-case
// problems are solved by constraint generation: the LP carries only the
// permutation constraints discovered so far, and the exact separation
// oracle -- a Hungarian maximum-weight matching on the pair-load matrix of a
// representative channel -- either certifies optimality or produces a
// violated permutation. Because the generated LP is a relaxation and the
// incumbent routing function is feasible, the gap between the LP objective
// and the oracle's load sandwiches the true optimum; convergence is
// self-certifying. The same pattern handles the per-sample maxima of the
// average-case problem.
//
// Symmetry (Section 4) enters through variable folding: commodities are
// restricted to canonical pair classes of the topology's automorphism group
// (translation folding alone, or the full group), with every pair's channel
// loads expressed over the folded variables through explicit automorphisms.
// Both foldings are implemented and cross-checked in tests; convexity of the
// cost functions guarantees a symmetric optimum exists, so folding loses
// nothing. The machinery is generic over topo.Topology: on the 2D torus the
// full group is the dihedral octant folding of the original engine, on the
// 3D torus the hyperoctahedral cone, and on the mesh the box-fixing
// reflections.
package design

import (
	"context"
	"errors"
	"fmt"
	"math"

	"tcr/internal/eval"
	"tcr/internal/lp"
	"tcr/internal/par"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// Fold selects the symmetry reduction applied to the flow formulation.
type Fold int

const (
	// FoldOctant folds commodities over the topology's full automorphism
	// group: one commodity per pair class (on the 2D torus, one per
	// canonical octant destination -- hence the name). Smallest LPs.
	FoldOctant Fold = iota
	// FoldTranslation folds over the translation subgroup only: one
	// commodity per relative destination on vertex-transitive families, one
	// per ordered pair otherwise. Larger LPs; used to cross-check the full
	// folding.
	FoldTranslation
)

// Numerical tolerances shared across the design LPs.
const (
	// defaultTol is the relative convergence tolerance used when
	// Options.Tol is unset: the oracle certifies optimality once no
	// permutation load exceeds the LP bound by more than this fraction.
	defaultTol = 1e-6
	// defaultSlack is the stage-2 slack applied to the optimal
	// worst-case load in the lexicographic designs when the caller
	// passes slack <= 0; it keeps the stage-2 LP strictly feasible.
	defaultSlack = 1e-6
	// pathProbFloor drops path probabilities below LP tolerance dust
	// when converting a solution into a routing table.
	pathProbFloor = 1e-12
	// decompCoverTol terminates flow decomposition once this little
	// source flow remains unextracted.
	decompCoverTol = 1e-7
)

// Cuts selects the constraint-generation strategy for worst-case problems.
type Cuts int

const (
	// CutPotentials (default) uses the paper's LP (8): matching-dual
	// potential variables per representative channel with lazily added
	// pair rows. Converges in few rounds.
	CutPotentials Cuts = iota
	// CutPermutations adds one worst-permutation row per representative
	// channel per round (pure cutting planes). Slower; kept as a
	// cross-check and ablation baseline.
	CutPermutations
)

// Options tunes the solvers; the zero value is ready to use.
type Options struct {
	// Fold selects the symmetry reduction (default FoldOctant).
	Fold Fold
	// Cuts selects the worst-case constraint strategy (default
	// CutPotentials).
	Cuts Cuts
	// MaxRounds bounds cutting-plane iterations (default 200).
	MaxRounds int
	// Tol is the relative convergence tolerance (default 1e-6).
	Tol float64
	// Workers bounds the engine's parallelism: the per-channel Hungarian
	// oracles run concurrently, and the Pareto sweeps solve their
	// per-point LPs on this many goroutines. 0 means all cores
	// (GOMAXPROCS). 1 reproduces the sequential behaviour bit for bit —
	// in particular, Pareto sweeps at Workers 1 share one warm-started LP
	// across the whole sweep exactly as the pre-parallel engine did,
	// while Workers > 1 solves one independent LP per point.
	Workers int
	// Slack is the stage-2 slack on the optimal first-stage objective
	// used by the lexicographic (throughput-then-locality) designs; it
	// keeps the stage-2 LP strictly feasible. 0 or negative selects the
	// default 1e-6.
	Slack float64
	// Retries bounds how many times a cutting-plane round is re-attempted
	// after a numerical failure that survived the LP solver's own recovery
	// ladder; each retry rebuilds a fresh solver from the cut log after an
	// exponential backoff. 0 selects the default of 2; negative disables
	// retries.
	Retries int
	// Checkpoint, when non-empty, is a file path the cut loops snapshot
	// their state to (accumulated cuts, simplex basis, pricing cursor), so
	// a killed run restarted with the same path resumes bit for bit instead
	// of recomputing: the worst-case flow designs and the 2TURN path design,
	// each stage of a two-stage design under its own signature. See
	// checkpoint.go for the exact resume semantics. Average-case loops
	// (including 2TURNA and the capacity LP) ignore it, since their dense
	// sample cuts do not serialize.
	Checkpoint string
	// CheckpointEvery is the snapshot cadence in cutting-plane rounds
	// (default 1: every round).
	CheckpointEvery int
	// WarmFrom, when non-empty, is a final-state snapshot (written by an
	// earlier run via FinalSnapshot) the worst-case cut loops warm-start
	// from when no Checkpoint resumes: the prior run's cuts, simplex basis,
	// and pricing cursor are installed before round zero. Permutation and
	// pair cuts are valid for every locality target, so the snapshot is
	// accepted across differing targets (the sig match relaxes only the
	// locality component) and the locality row is re-aimed at this run's
	// target after the restore. Unlike a checkpoint resume, a warm start
	// begins counting rounds at zero — the round count reports the
	// incremental work. A snapshot that fails integrity or formulation
	// checks is ignored and the loop starts cold.
	WarmFrom string
	// FinalSnapshot, when non-empty, is a file path the worst-case cut
	// loops write their final state to on certification (atomic write),
	// for a later run to warm-start from via WarmFrom.
	FinalSnapshot string

	// onSolve, when set, receives the Diagnostics of every successful LP
	// solve of a cutting-plane loop, in order. It lets tests hold the
	// reported pivot totals against the solver's own per-solve counts.
	onSolve func(lp.Diagnostics)
}

// ErrUncertified marks a design outcome whose budgets (rounds, iterations,
// deadline) ran out before the oracle certified optimality. APIs that can
// degrade gracefully return a Result with Certified == false instead; the
// ones that cannot (Pareto sweeps, the CLI) wrap this sentinel.
var ErrUncertified = errors.New("design: result not certified within budgets")

func (o Options) rounds() int {
	if o.MaxRounds > 0 {
		return o.MaxRounds
	}
	return 200
}

func (o Options) tol() float64 {
	if o.Tol > 0 {
		return o.Tol
	}
	return defaultTol
}

func (o Options) slack() float64 {
	if o.Slack > 0 {
		return o.Slack
	}
	return defaultSlack
}

func (o Options) retries() int {
	if o.Retries > 0 {
		return o.Retries
	}
	if o.Retries < 0 {
		return 0
	}
	return 2
}

func (o Options) ckptEvery() int {
	if o.CheckpointEvery > 0 {
		return o.CheckpointEvery
	}
	return 1
}

// commodity is one folded flow commodity: a pair class of the folding
// group, carrying its orbit weight (offsets-per-source on vertex-transitive
// families; ordered-pairs/N in general).
type commodity struct {
	src, dst topo.Node
	weight   float64
}

// FlowLP is a flow-based routing design LP under a symmetry folding. It
// carries the variable layout, the pair-to-variable automorphism maps, and
// the warm-startable solver state shared with every design LP (cutLP).
type FlowLP struct {
	cutLP
	T    topo.Topology
	fold Fold
	// nc caches T.Chans().
	nc int
	// grp is the folding group (full or translation, per fold).
	grp   topo.AutGroup
	comms []commodity
	// pairComm[s*N+d] / pairAut[s*N+d]: the commodity index and the
	// automorphism mapping pair (s, d) onto it; -1 for self pairs.
	pairComm []int
	pairAut  []topo.AutID
}

// newBareFlowLP builds the folding state (commodities, pair maps, separation
// representatives) without any LP model; the construction entry points add
// their own variables and rows on top.
func newBareFlowLP(t topo.Topology, opts Options) *FlowLP {
	p := &FlowLP{T: t, nc: t.Chans(), fold: opts.Fold}
	p.cutLP = cutLP{n: t.Nodes(), hRow: -1, wCap: math.NaN(), opts: opts}
	p.form = p
	if p.fold == FoldTranslation {
		p.grp = t.TransGroup()
	} else {
		p.grp = t.Group()
	}
	if p.fold == FoldOctant && !t.VertexTransitive() {
		// With the stabilizer rows of addSymmetry in the model, the unfolded
		// routing function is invariant under the full group, so one
		// separation representative per full-group channel orbit suffices.
		// Without translations this is the difference between scanning a
		// handful of orbits and scanning every channel.
		p.seps = t.Group().ChanOrbitReps()
	} else {
		p.seps = t.TransGroup().ChanOrbitReps()
	}
	p.buildCommodities()
	p.buildPairMaps()
	return p
}

// varID returns the LP variable of (commodity, channel).
func (p *FlowLP) varID(comm int, c topo.Channel) lp.VarID {
	return lp.VarID(comm*p.nc + int(c))
}

// NewFlowLP builds the base LP: flow conservation for each folded commodity
// plus the load variable w, with objective min w. A locality budget row
// (H_avg <= L, normalized units; see the package comment on why the paper's
// equality becomes a budget here) is added when withLocality is set; sweep
// it with SetLocality.
func NewFlowLP(t topo.Topology, withLocality bool, opts Options) *FlowLP {
	p := newBareFlowLP(t, opts)

	m := lp.NewModel()
	p.addFlowVars(m)
	p.wVar = m.AddVar(1, "w")
	p.addConservation(m, true)
	p.addSymmetry(m)
	if withLocality {
		p.addLocalityRow(m)
	}

	p.model = m
	p.solver = lp.NewSolver(m)
	return p
}

// addFlowVars adds the per-commodity channel flow variables in varID order.
// The variables are unnamed: VarName falls back to the dense index, and the
// per-variable Sprintf was a measurable share of the model-build cost on the
// mesh-family LPs.
func (p *FlowLP) addFlowVars(m *lp.Model) {
	m.AddVars(len(p.comms) * p.nc)
}

// addConservation appends the flow-conservation rows: for each commodity and
// node, out - in = supply (+1 at the class source, -1 at its destination).
func (p *FlowLP) addConservation(m *lp.Model, named bool) {
	t := p.T
	var terms []lp.Term // reused across rows; AddRow copies into the model's arena
	for ci, cm := range p.comms {
		for n := 0; n < p.n; n++ {
			nd := topo.Node(n)
			deg := t.OutDeg(nd)
			terms = terms[:0]
			for pt := 0; pt < deg; pt++ {
				out := t.PortChan(nd, pt)
				terms = append(terms,
					lp.Term{Var: p.varID(ci, out), Coef: 1},
					lp.Term{Var: p.varID(ci, t.ReverseChan(out)), Coef: -1},
				)
			}
			rhs := 0.0
			switch nd {
			case cm.src:
				rhs = 1
			case cm.dst:
				rhs = -1
			}
			name := ""
			if named {
				name = fmt.Sprintf("cons[%d,%d]", ci, n)
			}
			m.AddRow(terms, lp.EQ, rhs, name)
		}
	}
}

// addSymmetry appends stabilizer-invariance rows for full-group foldings of
// families without translation symmetry: x[ci][c] == x[ci][h(c)] for every
// nontrivial automorphism h fixing class ci's representative pair. PairAut
// picks one automorphism per pair, so without these rows the unfolded routing
// function is well-defined but only invariant modulo that choice; with them it
// is invariant under the whole group, making channel loads constant on
// full-group channel orbits — which is what licenses newBareFlowLP's reduced
// separation set. Convexity guarantees a fully symmetric optimum exists, so
// the rows lose nothing. Vertex-transitive families skip this: their
// historical LPs carry no such rows, and translation invariance alone already
// covers their per-direction separation representatives.
func (p *FlowLP) addSymmetry(m *lp.Model) {
	if p.fold != FoldOctant || p.T.VertexTransitive() {
		return
	}
	id := p.grp.Identity()
	var pair [2]lp.Term // reused across rows; AddRow copies into the model's arena
	for ci, cm := range p.comms {
		for _, h := range p.grp.Elements() {
			if h == id ||
				p.grp.ApplyNode(h, cm.src) != cm.src ||
				p.grp.ApplyNode(h, cm.dst) != cm.dst {
				continue
			}
			for c := 0; c < p.nc; c++ {
				hc := p.grp.ApplyChan(h, topo.Channel(c))
				if int(hc) <= c {
					continue // each unordered {c, h(c)} once; fixed channels need no row
				}
				pair[0] = lp.Term{Var: p.varID(ci, topo.Channel(c)), Coef: 1}
				pair[1] = lp.Term{Var: p.varID(ci, hc), Coef: -1}
				m.AddRow(pair[:], lp.EQ, 0, "")
			}
		}
	}
}

// addLocalityRow appends the H_avg budget row (orbit-weighted total flow).
func (p *FlowLP) addLocalityRow(m *lp.Model) {
	terms := make([]lp.Term, 0, len(p.comms)*p.nc)
	for ci, cm := range p.comms {
		for c := 0; c < p.nc; c++ {
			terms = append(terms, lp.Term{Var: p.varID(ci, topo.Channel(c)), Coef: cm.weight})
		}
	}
	// H_avg = (1/N) * sum weight * pathlen; constrain the sum directly.
	p.hRow = m.AddRow(terms, lp.LE, float64(p.n)*p.T.MeanMinDist(), "H")
	p.hasH = true
}

func (p *FlowLP) buildCommodities() {
	for _, cl := range p.grp.Classes() {
		p.comms = append(p.comms, commodity{src: cl.Src, dst: cl.Dst, weight: cl.Weight})
	}
}

func (p *FlowLP) buildPairMaps() {
	n := p.n
	p.pairComm = make([]int, n*n)
	p.pairAut = make([]topo.AutID, n*n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			ci, a := p.grp.PairAut(topo.Node(s), topo.Node(d))
			p.pairComm[s*n+d] = ci
			p.pairAut[s*n+d] = a
		}
	}
}

// pairLoadVar returns the LP variable carrying the load that pair (s, d)
// places on channel c, or -1 for self pairs.
func (p *FlowLP) pairLoadVar(s, d int, c topo.Channel) lp.VarID {
	idx := s*p.n + d
	ci := p.pairComm[idx]
	if ci < 0 {
		return -1
	}
	return p.varID(ci, p.grp.ApplyChan(p.pairAut[idx], c))
}

// matrixCutTerms builds the dense-pattern load cut's terms.
func (p *FlowLP) matrixCutTerms(c topo.Channel, lam *traffic.Matrix, bound lp.VarID) []lp.Term {
	terms := make([]lp.Term, 0, p.n*p.n/4)
	for s := 0; s < p.n; s++ {
		for d := 0; d < p.n; d++ {
			l := lam.L[s][d]
			//lint:ignore floatcmp sparsity skip: entries never written stay exactly 0
			if l == 0 {
				continue
			}
			if v := p.pairLoadVar(s, d, c); v >= 0 {
				terms = append(terms, lp.Term{Var: v, Coef: l})
			}
		}
	}
	return append(terms, lp.Term{Var: bound, Coef: -1})
}

// unfold expands an LP solution into a full flow table: one row per relative
// destination on vertex-transitive families (the induced
// translation-invariant routing function), one row per ordered pair
// otherwise.
func (p *FlowLP) unfold(x []float64) *eval.Flow {
	t := p.T
	f := eval.NewFlow(t)
	fill := func(row []float64, idx int) {
		ci, a := p.pairComm[idx], p.pairAut[idx]
		for c := 0; c < p.nc; c++ {
			row[c] = x[p.varID(ci, p.grp.ApplyChan(a, topo.Channel(c)))]
		}
	}
	if t.VertexTransitive() {
		for rel := 1; rel < p.n; rel++ {
			fill(f.X[rel], rel) // pair (0, rel)
		}
		return f
	}
	for s := 0; s < p.n; s++ {
		for d := 0; d < p.n; d++ {
			if s == d {
				continue
			}
			fill(f.X[s*p.n+d], s*p.n+d)
		}
	}
	return f
}

// Result is the outcome of a design solve: the optimal folded solution
// expanded to a flow table plus its exactly-evaluated metrics.
type Result struct {
	Flow *eval.Flow
	// Objective is the LP objective at convergence (max load for
	// worst-case problems, mean max load for average-case).
	Objective float64
	// GammaWC is the exact worst-case channel load of the returned
	// routing function (Hungarian-evaluated).
	GammaWC float64
	// HAvg is the average path length in hops; HNorm normalized.
	HAvg, HNorm float64
	// Rounds is the number of cutting-plane iterations used (over both
	// stages of a two-stage design).
	Rounds int
	// Iterations is the total simplex pivot count over every round's LP
	// solve (over both stages, and carried across a checkpoint resume).
	Iterations int
	// Refactorizations is the total basis refactorization count over the
	// round solves this call performed (a checkpoint resume starts it
	// afresh).
	Refactorizations int
	// Certified reports that the separation oracle proved optimality
	// within the round, pivot, and deadline budgets. When false the
	// result is a graceful degradation: Flow is the best feasible routing
	// encountered (its GammaWC exactly evaluated), Objective the LP lower
	// bound at that round, and Reason says which budget ran out.
	Certified bool
	// Reason explains an uncertified outcome; empty when Certified.
	Reason string
}

// separate is the pure cutting-plane formulation's separation step: one
// worst-permutation cut per violated representative channel (translation
// invariance covers the rest; without it, every channel is its own
// representative).
func (p *FlowLP) separate(ctx context.Context, sol *lp.Solution) (verdict, error) {
	return p.separateWorst(ctx, sol, p.unfold(sol.X), rowPolicy{permCut: true})
}

// pairLoadMatrix mirrors eval's internal pair-load matrix for the oracle:
// entry (s, d) is the load pair (s, d) places on channel c. On
// vertex-transitive families the flow table holds one row per relative
// destination and the channel is translated into each source's frame; the
// general form reads the per-pair rows directly.
func pairLoadMatrix(f *eval.Flow, c topo.Channel) [][]float64 {
	t := f.T
	n := t.Nodes()
	m := make([][]float64, n)
	if !t.VertexTransitive() {
		for s := 0; s < n; s++ {
			m[s] = make([]float64, n)
			for d := 0; d < n; d++ {
				m[s][d] = f.X[s*n+d][c]
			}
		}
		return m
	}
	tg := t.TransGroup()
	for s := 0; s < n; s++ {
		m[s] = make([]float64, n)
		// PairAut(s, 0) is the translation mapping s to the origin; it
		// carries c into source s's canonical frame.
		_, a := tg.PairAut(topo.Node(s), 0)
		tc := tg.ApplyChan(a, c)
		for d := 0; d < n; d++ {
			m[s][d] = f.X[t.RelNode(topo.Node(s), topo.Node(d))][tc]
		}
	}
	return m
}

// WorstCaseOptimal designs a routing function with the maximum worst-case
// throughput (no locality constraint): the right-hand end of Figure 1's
// Pareto curve.
func WorstCaseOptimal(t topo.Topology, opts Options) (*Result, error) {
	return WorstCaseOptimalCtx(context.Background(), t, opts)
}

// WorstCaseOptimalCtx is WorstCaseOptimal under a cancellation context: the
// solve aborts between cutting-plane rounds once ctx is done.
func WorstCaseOptimalCtx(ctx context.Context, t topo.Topology, opts Options) (*Result, error) {
	if opts.Cuts == CutPermutations {
		return NewFlowLP(t, false, opts).solve(ctx)
	}
	return newPotentialLP(t, false, opts).solve(ctx)
}

// WorstCaseAtLocality designs the best worst-case routing function whose
// average path length equals hNorm times minimal: one point of Figure 1's
// optimal tradeoff curve (equation 10).
func WorstCaseAtLocality(t topo.Topology, hNorm float64, opts Options) (*Result, error) {
	return WorstCaseAtLocalityCtx(context.Background(), t, hNorm, opts)
}

// WorstCaseAtLocalityCtx is WorstCaseAtLocality under a cancellation context.
func WorstCaseAtLocalityCtx(ctx context.Context, t topo.Topology, hNorm float64, opts Options) (*Result, error) {
	if opts.Cuts == CutPermutations {
		p := NewFlowLP(t, true, opts)
		p.SetLocality(hNorm)
		return p.solve(ctx)
	}
	q := newPotentialLP(t, true, opts)
	q.SetLocality(hNorm)
	return q.solve(ctx)
}

// ParetoPoint is one sample of an optimal tradeoff curve.
type ParetoPoint struct {
	HNorm float64 // normalized average path length (the constraint)
	// Theta is the optimal throughput at this locality, as a fraction of
	// network capacity.
	Theta float64
	// Gamma is the corresponding optimal load objective.
	Gamma float64
}

// WorstCaseParetoCurve sweeps the locality constraint over hNorms and
// returns the optimal worst-case throughput at each point. See
// WorstCaseParetoCurveCtx for the sweep strategy.
func WorstCaseParetoCurve(t topo.Topology, hNorms []float64, opts Options) ([]ParetoPoint, error) {
	return WorstCaseParetoCurveCtx(context.Background(), t, hNorms, opts)
}

// WorstCaseParetoCurveCtx sweeps the locality constraint over hNorms under a
// cancellation context. At Options.Workers 1 the sweep reuses one LP (and
// its accumulated cuts -- permutation constraints are valid for every L)
// across the points, exactly as the sequential engine always has. At any
// other worker count the points are independent LPs solved concurrently;
// the returned slice is ordered by hNorms index either way. Both strategies
// converge to the same optima within the LP tolerance, but the warm-started
// sequential sweep and the independent solves may differ in the last few
// ulps of each point.
func WorstCaseParetoCurveCtx(ctx context.Context, t topo.Topology, hNorms []float64, opts Options) ([]ParetoPoint, error) {
	// Sweeps cannot degrade gracefully (a curve with silently uncertified
	// points is worse than no curve) and must not share one checkpoint
	// file across points, so checkpointing is disabled and an uncertified
	// point surfaces as an ErrUncertified-wrapping error. The same sharing
	// hazard disables the warm-start snapshot paths.
	opts.Checkpoint = ""
	opts.WarmFrom, opts.FinalSnapshot = "", ""
	cap := eval.NetworkCapacity(t)
	if par.Workers(opts.Workers) > 1 {
		out := make([]ParetoPoint, len(hNorms))
		err := par.Do(ctx, len(hNorms), opts.Workers, func(i int) error {
			h := hNorms[i]
			// Each point owns its LP; the oracle inside it stays
			// sequential so the pool is not oversubscribed.
			popts := opts
			popts.Workers = 1
			res, err := WorstCaseAtLocalityCtx(ctx, t, h, popts)
			if err != nil {
				return fmt.Errorf("L=%v: %w", h, err)
			}
			if !res.Certified {
				return fmt.Errorf("L=%v: %w: %s", h, ErrUncertified, res.Reason)
			}
			out[i] = ParetoPoint{HNorm: h, Theta: (1 / res.GammaWC) / cap, Gamma: res.GammaWC}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	out := make([]ParetoPoint, 0, len(hNorms))
	var p *cutLP
	if opts.Cuts == CutPermutations {
		p = &NewFlowLP(t, true, opts).cutLP
	} else {
		p = &newPotentialLP(t, true, opts).cutLP
	}
	for _, h := range hNorms {
		p.SetLocality(h)
		res, err := p.solve(ctx)
		if err != nil {
			return nil, fmt.Errorf("L=%v: %w", h, err)
		}
		if !res.Certified {
			return nil, fmt.Errorf("L=%v: %w: %s", h, ErrUncertified, res.Reason)
		}
		out = append(out, ParetoPoint{HNorm: h, Theta: (1 / res.GammaWC) / cap, Gamma: res.GammaWC})
	}
	return out, nil
}

// MinLocalityAtWorstCase performs the two-stage (lexicographic) design used
// for Figure 4's "optimal" series: first find the best achievable worst-case
// load w*, then minimize average path length subject to keeping the
// worst-case load within (1+Options.Slack) of w*.
func MinLocalityAtWorstCase(t topo.Topology, opts Options) (*Result, error) {
	return MinLocalityAtWorstCaseCtx(context.Background(), t, opts)
}

// MinLocalityAtWorstCaseCtx is MinLocalityAtWorstCase under a cancellation
// context.
func MinLocalityAtWorstCaseCtx(ctx context.Context, t topo.Topology, opts Options) (*Result, error) {
	q := newPotentialLP(t, false, opts)
	return lexicographic(
		func() (*Result, error) { return q.solve(ctx) },
		func(stage1 *Result) (*Result, error) {
			// Stage 2: cap w, flip the objective to total (orbit-weighted)
			// path length, and resume lazy-row generation at the fixed load
			// bound. Both mutations go through the cut log so retry rebuilds
			// and checkpoints replay them; the stage bump keeps stage-2
			// checkpoints from ever restoring into a stage-1 loop.
			q.ckptStage = 2
			q.record(cutEntry{Kind: cutCapW, Val: stage1.Objective * (1 + opts.slack())})
			q.record(cutEntry{Kind: cutObjLen})
			return q.solve(ctx)
		})
}
