package design

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"tcr/internal/store"
	"tcr/internal/topo"
)

// Cut-loop checkpointing: every Options.CheckpointEvery rounds, the loop
// serializes its accumulated cut log together with the solver's basis and
// pricing cursor. A killed run restarted with the same Options.Checkpoint
// path replays the log onto a fresh solver, installs the basis, and
// continues from the recorded round — bit for bit the run the
// uninterrupted loop would have produced, because the write barrier
// (Solver.RefreshFactors) puts the live solver through exactly the
// refactorization the restore path performs.
//
// The checkpoint identifies its run by a signature of the formulation
// (topology, folding, cut strategy, locality target, lexicographic stage);
// a file whose signature does not match is ignored and overwritten, so
// pointing different runs at one path degrades to "no resume", never to a
// wrong resume. Resume granularity is one cut loop: the lexicographic
// design's stage 2 carries a distinct signature, so a run killed in stage
// 2 re-runs stage 1 and resumes stage 2's accumulated state is discarded.

// checkpointVersion invalidates checkpoints across incompatible solver or
// formulation changes. ckpt-2 added the integrity hash field; ckpt-3
// switched the stage-2 w cap from a cut row to a variable upper bound
// (bounded simplex), which changes the basis dimension and adds the at-upper
// nonbasic set to the serialized state; ckpt-4 marks the switch of the warm
// dual simplex to steepest-edge pricing on perturbed costs, under which a
// saved basis and cut log replay a different trajectory; ckpt-5 drops the
// up-front pair-row block from the base model of non-vertex-transitive
// topologies (meshes), whose cut logs now carry the lazily generated pair
// rows as cutPair entries, so a ckpt-4 mesh basis no longer fits the
// rebuilt model; ckpt-6 marks the bounded Markowitz search (count buckets,
// a four-column candidate limit, threshold 0.1) and the lower eta-file fill
// bound, under which every saved basis and cut log replays a different
// trajectory.
const checkpointVersion = "tcr-ckpt-6"

// checkpoint is the on-disk resume state of a cut loop. SHA256 is the
// integrity hash (store.HashBytes) of the checkpoint's own JSON encoding
// with the SHA256 field empty: restoring into a live solver from state a
// crash or a stray editor has garbled would produce a silently different
// trajectory, so a checkpoint that does not verify is rejected outright.
type checkpoint struct {
	SHA256 string     `json:"sha256"`
	Sig    string     `json:"sig"`
	Round  int        `json:"round"` // completed rounds (next round index)
	Iters  int        `json:"iters"` // cumulative simplex pivots
	Cuts   []cutEntry `json:"cuts"`
	Basis  []int      `json:"basis"`
	Cursor int        `json:"cursor"` // partial-pricing rotation state
	// AtUpper lists the nonbasic columns sitting at their upper bounds; with
	// the bounded simplex a basis alone no longer determines the vertex.
	AtUpper []int `json:"atUpper,omitempty"`
}

// seal computes the integrity hash over the checkpoint's canonical encoding
// (SHA256 field empty) and returns the sealed bytes ready to write.
// verify re-derives the same encoding from a parsed checkpoint; JSON
// numbers round-trip exactly (Go emits the shortest representation that
// parses back to the same value), so writer and reader hash identical
// bytes whenever the semantic content is identical.
func (ck *checkpoint) seal() ([]byte, error) {
	ck.SHA256 = ""
	body, err := json.Marshal(ck)
	if err != nil {
		return nil, err
	}
	ck.SHA256 = store.HashBytes(body)
	return json.Marshal(ck)
}

// verify checks a parsed checkpoint's integrity hash.
func (ck *checkpoint) verify() bool {
	want := ck.SHA256
	if want == "" {
		return false
	}
	ck.SHA256 = ""
	body, err := json.Marshal(ck)
	ck.SHA256 = want
	return err == nil && store.HashBytes(body) == want
}

// sig fingerprints everything that shapes the cut loop's trajectory except
// its budgets (budgets may legitimately differ between the killed run and
// the resuming one). The 2D torus keeps its historical "k=%d" form so
// pre-refactor checkpoints still resume; other families identify themselves
// by their canonical topology string.
func (p *FlowLP) sig() string {
	loc := ""
	if p.hasH {
		loc = fmt.Sprintf(" loc=%g", p.locNorm)
	}
	id := "topo=" + topo.String(p.T)
	if tt, ok := p.T.(*topo.Torus); ok {
		id = fmt.Sprintf("k=%d", tt.K)
	}
	return fmt.Sprintf("%s %s fold=%d cuts=%d stage=%d tol=%g%s",
		checkpointVersion, id, p.fold, p.opts.Cuts, p.ckptStage, p.opts.tol(), loc)
}

// writeCheckpoint snapshots the loop after `round` completed rounds. The
// RefreshFactors barrier before capturing the basis is what makes the live
// continuation and a later restore numerically identical. Logs with
// non-serializable entries (average-case matrix cuts) are skipped.
func (p *FlowLP) writeCheckpoint(round, iters int) error {
	if p.opts.Checkpoint == "" || !p.serializable() {
		return nil
	}
	if err := p.solver.RefreshFactors(); err != nil {
		return fmt.Errorf("design: checkpoint barrier: %w", err)
	}
	ck := checkpoint{
		Sig:     p.sig(),
		Round:   round,
		Iters:   iters,
		Cuts:    p.cutLog,
		Basis:   p.solver.Basis(),
		Cursor:  p.solver.PricingCursor(),
		AtUpper: p.solver.AtUpperSet(),
	}
	if ck.Cuts == nil {
		ck.Cuts = []cutEntry{}
	}
	data, err := ck.seal()
	if err != nil {
		return fmt.Errorf("design: checkpoint encode: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(p.opts.Checkpoint), 0o755); err != nil {
		return fmt.Errorf("design: checkpoint dir: %w", err)
	}
	// Temp + fsync + rename + directory sync: a crash mid-write leaves the
	// previous checkpoint intact, never a torn file.
	if err := store.WriteFileAtomic(p.opts.Checkpoint, data, 0o644); err != nil {
		return fmt.Errorf("design: checkpoint write: %w", err)
	}
	return nil
}

// restoreCheckpoint loads and installs a matching checkpoint, returning the
// round to resume from and the pivots already spent. ok is false — and the
// loop starts from scratch — when no usable checkpoint exists (missing or
// unreadable file, failed integrity hash, signature mismatch, corrupt
// basis). A restore that
// fails midway rolls the solver back to its fresh pre-restore state.
func (p *FlowLP) restoreCheckpoint() (round, iters int, ok bool) {
	if p.opts.Checkpoint == "" {
		return 0, 0, false
	}
	data, err := os.ReadFile(p.opts.Checkpoint)
	if err != nil {
		return 0, 0, false
	}
	var ck checkpoint
	if err := json.Unmarshal(data, &ck); err != nil || !ck.verify() || ck.Sig != p.sig() {
		return 0, 0, false
	}
	for _, e := range ck.Cuts {
		if e.Kind == cutMatrix || (e.Kind == cutPair && (e.Block < 0 || e.Block >= len(p.blocks))) {
			return 0, 0, false
		}
	}
	savedLog := p.cutLog
	p.cutLog = ck.Cuts
	p.rebuildSolver()
	// The at-upper set must be in place before InstallBasis: the basic
	// values it recomputes depend on which nonbasic columns sit at bounds.
	if err := p.solver.SetAtUpperSet(ck.AtUpper); err != nil {
		p.cutLog = savedLog
		p.rebuildSolver()
		return 0, 0, false
	}
	if err := p.solver.InstallBasis(ck.Basis); err != nil {
		p.cutLog = savedLog
		p.rebuildSolver()
		return 0, 0, false
	}
	p.solver.SetPricingCursor(ck.Cursor)
	return ck.Round, ck.Iters, true
}

// stripLoc removes the locality component from a checkpoint signature.
// Permutation and lazy pair cuts bound channel loads independently of the
// H_avg budget (the Pareto sweep reuses one LP across targets on exactly
// this property), so a warm start may accept a snapshot whose run differed
// only in its locality target.
func stripLoc(sig string) string {
	if i := strings.Index(sig, " loc="); i >= 0 {
		return sig[:i]
	}
	return sig
}

// writeFinalSnapshot persists the cut loop's state at certification to
// Options.FinalSnapshot for a later run to warm-start from. Same layout and
// integrity seal as a checkpoint; Round/Iters record the certified run's
// totals (informational — a warm start restarts the round count at zero).
func (p *FlowLP) writeFinalSnapshot(round, iters int) error {
	if p.opts.FinalSnapshot == "" || !p.serializable() {
		return nil
	}
	if err := p.solver.RefreshFactors(); err != nil {
		return fmt.Errorf("design: final-snapshot barrier: %w", err)
	}
	ck := checkpoint{
		Sig:     p.sig(),
		Round:   round,
		Iters:   iters,
		Cuts:    p.cutLog,
		Basis:   p.solver.Basis(),
		Cursor:  p.solver.PricingCursor(),
		AtUpper: p.solver.AtUpperSet(),
	}
	if ck.Cuts == nil {
		ck.Cuts = []cutEntry{}
	}
	data, err := ck.seal()
	if err != nil {
		return fmt.Errorf("design: final-snapshot encode: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(p.opts.FinalSnapshot), 0o755); err != nil {
		return fmt.Errorf("design: final-snapshot dir: %w", err)
	}
	if err := store.WriteFileAtomic(p.opts.FinalSnapshot, data, 0o644); err != nil {
		return fmt.Errorf("design: final-snapshot write: %w", err)
	}
	return nil
}

// restoreWarmStart installs the Options.WarmFrom snapshot into a fresh cut
// loop: replay the prior run's cuts, install its basis, at-upper set, and
// pricing cursor, then re-aim the locality row (if any) at this run's
// target — the recorded locality retargets are replayed as-is and the fresh
// retarget, appended through the cut log, overwrites them exactly as a
// Pareto sweep's SetLocality does. The signature must match up to the
// locality component; anything unusable (torn file, failed integrity hash,
// foreign formulation, corrupt basis) means a cold start, never a wrong
// warm one. ok is informational; callers may ignore it.
func (p *FlowLP) restoreWarmStart() (ok bool) {
	if p.opts.WarmFrom == "" {
		return false
	}
	data, err := os.ReadFile(p.opts.WarmFrom)
	if err != nil {
		return false
	}
	var ck checkpoint
	if err := json.Unmarshal(data, &ck); err != nil || !ck.verify() {
		return false
	}
	if stripLoc(ck.Sig) != stripLoc(p.sig()) {
		return false
	}
	for _, e := range ck.Cuts {
		if e.Kind == cutMatrix || (e.Kind == cutPair && (e.Block < 0 || e.Block >= len(p.blocks))) {
			return false
		}
	}
	savedLog := p.cutLog
	p.cutLog = append([]cutEntry(nil), ck.Cuts...)
	p.rebuildSolver()
	if err := p.solver.SetAtUpperSet(ck.AtUpper); err != nil {
		p.cutLog = savedLog
		p.rebuildSolver()
		return false
	}
	if err := p.solver.InstallBasis(ck.Basis); err != nil {
		p.cutLog = savedLog
		p.rebuildSolver()
		return false
	}
	p.solver.SetPricingCursor(ck.Cursor)
	if p.hasH {
		p.record(cutEntry{Kind: cutLoc, Val: p.locNorm})
	}
	return true
}

// clearCheckpoint removes the checkpoint after a certified finish, so a
// later run with the same path starts clean.
func (p *FlowLP) clearCheckpoint() error {
	if p.opts.Checkpoint == "" {
		return nil
	}
	if err := os.Remove(p.opts.Checkpoint); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("design: checkpoint remove: %w", err)
	}
	return nil
}
