package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tcr"
	"tcr/internal/design"
	"tcr/internal/eval"
	"tcr/internal/routing"
	"tcr/internal/serve"
	"tcr/internal/store"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// This file holds the diagnostic subcommands beyond the figure pipeline:
//
//	worstperm  print the adversarial permutation the Hungarian oracle finds
//	design     run an LP design and export the routing table as JSON
//	loadmap    ASCII heat map of per-channel loads under a pattern
//
// They are registered from main's dispatch (see registerTools).

// algByName resolves the closed-form algorithms through the shared registry
// (routing.ByName), so the CLI and the tcrd daemon accept the same names.
func algByName(name string) (routing.Algorithm, bool) {
	return routing.ByName(name)
}

func cmdWorstPerm(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("worstperm", flag.ExitOnError)
	k := fs.Int("k", 8, "torus radix")
	algName := fs.String("alg", "DOR", "algorithm name")
	asJSON := fs.Bool("json", false, "emit the artifact JSON line (the tcrd schema) instead of the TSV permutation")
	storeDir := fs.String("store", "", "artifact store directory: replay a stored certificate, persist a fresh one")
	if err := fs.Parse(args); err != nil {
		return err
	}

	alg, ok := algByName(*algName)
	if !ok {
		return fmt.Errorf("unknown algorithm %q", *algName)
	}
	t, err := newTorus(*k)
	if err != nil {
		return err
	}
	if *asJSON {
		st, err := openStore(*storeDir)
		if err != nil {
			return err
		}
		req := store.WorstPermRequest{K: *k, Alg: *algName}
		fp, err := req.Fingerprint()
		if err != nil {
			return err
		}
		b, err := artifactBytes(st, store.KindWorstPerm, fp, func() (any, bool, error) {
			art, err := serve.ComputeWorstPerm(ctx, req, nil, tcr.Concurrency)
			return art, err == nil, err
		})
		if err != nil {
			return err
		}
		return emit(b)
	}
	f, err := eval.FromAlgorithmCtx(ctx, t, alg, tcr.Concurrency)
	if err != nil {
		return err
	}
	gamma, perm, err := f.WorstCaseCtx(ctx, tcr.Concurrency)
	if err != nil {
		return err
	}
	fmt.Printf("# worst-case channel load for %s on %d-ary 2-cube: %.4f (throughput %.4f of capacity)\n",
		*algName, *k, gamma, (1/gamma)/eval.NetworkCapacity(t))
	fmt.Println("src_x\tsrc_y\tdst_x\tdst_y\thops")
	for s, d := range perm {
		sx, sy := t.Coord(topo.Node(s))
		dx, dy := t.Coord(topo.Node(d))
		fmt.Printf("%d\t%d\t%d\t%d\t%d\n", sx, sy, dx, dy, t.MinDist(topo.Node(s), topo.Node(d)))
	}
	return nil
}

func cmdDesign(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("design", flag.ExitOnError)
	k := fs.Int("k", 8, "torus radix")
	topoSpec := fs.String("topo", "", `explicit topology "family:spec" (e.g. torus3d:4, mesh:8x8); overrides -k, wcopt only`)
	kind := fs.String("kind", "2turn", "2turn|2turna|wcopt")
	nSamples := fs.Int("samples", 50, "sample count for 2turna")
	seed := fs.Int64("seed", 1, "sample seed")
	ckpt := fs.String("checkpoint", "", "checkpoint file for a resumable wcopt design (see DESIGN.md)")
	rounds := fs.Int("rounds", 0, "cutting-plane round budget per stage, 0 = default (exits 4 when exhausted)")
	storeDir := fs.String("store", "", "artifact store directory for wcopt: replay a stored design, persist and checkpoint a fresh one")
	out := fs.String("o", "", "output JSON path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var t topo.Topology
	var err error
	if *topoSpec != "" {
		if *kind != "wcopt" {
			return fmt.Errorf("-topo supports only -kind wcopt (%q is a torus2d path-family design)", *kind)
		}
		if t, err = topo.Parse(*topoSpec); err != nil {
			return err
		}
	} else if t, err = newTorus(*k); err != nil {
		return err
	}
	var tbl *routing.Table
	switch *kind {
	case "2turn":
		res, err := design2Turn(ctx, t.(*tcr.Torus), tcr.DesignOptions{MaxRounds: *rounds})
		if err != nil {
			return err
		}
		tbl = res.Table
		fmt.Fprintf(os.Stderr, "2TURN: H=%.4f gamma_wc=%.4f\n", res.HNorm, res.GammaWC)
	case "2turna":
		tor := t.(*tcr.Torus)
		samples := tcr.SampleTraffic(tor, *nSamples, *seed)
		res, err := design2TurnA(ctx, tor, samples, tcr.DesignOptions{MaxRounds: *rounds})
		if err != nil {
			return err
		}
		tbl = res.Table
		fmt.Fprintf(os.Stderr, "2TURNA: H=%.4f mean-max-load=%.4f\n", res.HNorm, res.Objective)
	case "wcopt":
		tbl, err = designWcopt(ctx, t, *ckpt, *rounds, *storeDir)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown design kind %q", *kind)
	}

	// The 2D torus keeps the historical direction-string format (golden
	// compatibility); other families serialize port indices.
	write := func(w io.Writer) error {
		if tor, ok := t.(*tcr.Torus); ok {
			return tbl.WriteJSON(w, tor)
		}
		return tbl.WritePortsJSON(w, t)
	}
	if *out == "" {
		return write(os.Stdout)
	}
	file, err := os.Create(*out)
	if err != nil {
		return err
	}
	werr := write(file)
	cerr := file.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// design2Turn designs 2TURN and refuses an uncertified result.
func design2Turn(ctx context.Context, t *tcr.Torus, opts tcr.DesignOptions) (*tcr.PathDesignResult, error) {
	res, err := tcr.Design2TurnCtx(ctx, t, opts)
	return certifiedPath("2TURN", res, err)
}

// design2TurnA designs 2TURNA and refuses an uncertified result.
func design2TurnA(ctx context.Context, t *tcr.Torus, samples []*tcr.Traffic, opts tcr.DesignOptions) (*tcr.PathDesignResult, error) {
	res, err := tcr.Design2TurnACtx(ctx, t, samples, opts)
	return certifiedPath("2TURNA", res, err)
}

// certifiedPath passes a certified path design through. A degraded one (a
// budget ran out) prints its best-known bound on stderr and fails with an
// ErrUncertified-wrapped error (exit 4), as designWcopt does: a table or
// plot point built from an uncertified design would pass for the optimum.
func certifiedPath(label string, res *tcr.PathDesignResult, err error) (*tcr.PathDesignResult, error) {
	if err != nil {
		return nil, err
	}
	if !res.Certified {
		fmt.Fprintf(os.Stderr, "%s: best known H=%.4f gamma_wc=%.4f after %d rounds (uncertified)\n",
			label, res.HNorm, res.GammaWC, res.Rounds)
		return nil, fmt.Errorf("%s: %w: %s", label, design.ErrUncertified, res.Reason)
	}
	return res, nil
}

// designWcopt runs — or replays from the artifact store — the lexicographic
// worst-case design and decomposes it into an executable table. The CLI's
// "wcopt" calls MinLocalityAtWorstCase (throughput first, then locality),
// which is the store kind "minloc": CLI runs and daemon requests share one
// artifact slot and one checkpoint. With a store and no explicit
// -checkpoint, the checkpoint lives in the store, keyed by the request
// fingerprint, so an interrupted run resumes from wherever it died —
// whether the interrupted run was this CLI or a tcrd daemon. Only certified
// results are persisted; an uncertified budget exhaustion leaves just the
// checkpoint behind and exits 4 as before.
func designWcopt(ctx context.Context, t topo.Topology, ckpt string, rounds int, storeDir string) (*routing.Table, error) {
	st, err := openStore(storeDir)
	if err != nil {
		return nil, err
	}
	// The 2D torus canonicalizes to the legacy radix form so CLI runs,
	// daemon requests, and pre-existing artifacts keep sharing fingerprints.
	req := store.DesignRequest{Kind: store.DesignMinLocality}
	if tor, ok := t.(*tcr.Torus); ok {
		req.K = tor.K
	} else {
		req.Topology = topo.String(t)
	}
	fp, err := req.Fingerprint()
	if err != nil {
		return nil, err
	}
	if st != nil && ckpt == "" {
		if ckpt, err = st.CheckpointPath(store.KindDesign, fp); err != nil {
			return nil, err
		}
	}
	b, err := artifactBytes(st, store.KindDesign, fp, func() (any, bool, error) {
		// Slack 0 selects the design package's default stage-2 slack.
		art, err := serve.ComputeDesign(ctx, req, design.Options{
			Checkpoint: ckpt,
			MaxRounds:  rounds,
			Workers:    tcr.Concurrency,
		})
		if err != nil {
			return nil, false, err
		}
		return art, art.Certified, nil
	})
	if err != nil {
		return nil, err
	}
	var art store.DesignArtifact
	if err := json.Unmarshal(b, &art); err != nil {
		return nil, fmt.Errorf("design artifact decode: %w", err)
	}
	if !art.Certified {
		fmt.Fprintf(os.Stderr, "wc-opt: best known H=%.4f gamma_wc=%.4f after %d rounds (uncertified)\n",
			art.HNorm, art.GammaWC, art.Rounds)
		return nil, fmt.Errorf("wc-opt: %w: %s", design.ErrUncertified, art.Reason)
	}
	flow, err := serve.ArtifactFlow(t, &art)
	if err != nil {
		return nil, err
	}
	alg, err := design.DecomposeFlow(flow, "wc-opt")
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "wc-opt: H=%.4f gamma_wc=%.4f\n", art.HNorm, art.GammaWC)
	return alg, nil
}

func cmdLoadMap(args []string) error {
	fs := flag.NewFlagSet("loadmap", flag.ExitOnError)
	k := fs.Int("k", 8, "torus radix")
	algName := fs.String("alg", "DOR", "algorithm name")
	pattern := fs.String("pattern", "tornado", "uniform|tornado|transpose|complement|neighbor|bitrev|shuffle")
	if err := fs.Parse(args); err != nil {
		return err
	}

	alg, ok := algByName(*algName)
	if !ok {
		return fmt.Errorf("unknown algorithm %q", *algName)
	}
	t, err := newTorus(*k)
	if err != nil {
		return err
	}
	lam, ok := traffic.Named(t, *pattern)
	if !ok {
		return fmt.Errorf("pattern %q unavailable on k=%d", *pattern, *k)
	}
	f := eval.FromAlgorithm(t, alg)
	loads := f.ChannelLoads(lam)
	var max float64
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	fmt.Printf("# %s under %s on %d-ary 2-cube: gamma_max = %.4f\n", *algName, *pattern, *k, max)
	ramp := " .:-=+*#%@"
	//lint:ignore dirliteral loadmap renders the four torus2d direction planes by definition
	for dir := topo.Dir(0); dir < topo.NumDirs; dir++ {
		fmt.Printf("\n%s channels (rows are y, columns x):\n", dir)
		for y := *k - 1; y >= 0; y-- {
			var sb strings.Builder
			for x := 0; x < *k; x++ {
				l := loads[t.Chan(t.NodeAt(x, y), dir)]
				idx := 0
				if max > 0 {
					idx = int(l / max * float64(len(ramp)-1))
				}
				sb.WriteByte(ramp[idx])
			}
			fmt.Println(sb.String())
		}
	}
	return nil
}
