package design

// Golden design fingerprints: the k=4 and k=6 2D-torus worst-case designs
// (WorstCaseOptimal and WorstCaseAtLocality) are pinned BIT FOR BIT — a
// SHA-256 over the exact float64 bit patterns of the objective and the full
// flow solution. These runs are the paper's Figure 1 backbone and the
// compatibility contract for checkpoints and the artifact store: any solver
// change that moves even the last mantissa bit of these trajectories must be
// deliberate (and re-pin the hashes alongside a checkpoint-version bump).
//
// The lexicographic design (MinLocalityAtWorstCase) is checked semantically,
// not bitwise: its stage-2 cap on w is a variable bound, so legitimate
// simplex-path changes (e.g. the bounded-simplex ratio test) may move its
// trajectory while landing on the same optimum.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// goldenHash fingerprints a flow solution: SHA-256 (first 16 hex digits)
// over the little-endian bit patterns of obj then every flow value, in order.
func goldenHash(x [][]float64, obj float64) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(obj))
	h.Write(buf[:])
	for _, row := range x {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func TestGoldenDesignFingerprints(t *testing.T) {
	if !goldenEngineDefault {
		t.Skip("fingerprints pin the eta engine's bit trajectory; lpdense swaps the default engine")
	}
	// Captured with Options{Workers: 1} (the deterministic serial schedule).
	cases := []struct {
		k      int
		wcopt  string // WorstCaseOptimal hash over (Objective, Flow.X)
		wcloc  string // WorstCaseAtLocality(1.5) hash
		lexH   uint64 // MinLocalityAtWorstCase HNorm bits (semantic check)
		gammaW uint64 // WorstCaseOptimal GammaWC bits
	}{
		{4, "e8cb7f46db84298c", "4ac3add5894fa216", 0x3ff59997a8f783ec, 0x3ff0000000002557},
		{6, "7878bbb97acb3069", "6e93d1c032420c3b", 0x3ff71198f4769b48, 0x3ff8000000026b16},
	}
	for _, tc := range cases {
		if tc.k == 6 && testing.Short() {
			continue
		}
		tor := topo.NewTorus(tc.k)
		opts := Options{Workers: 1}

		res, err := WorstCaseOptimal(tor, opts)
		if err != nil {
			t.Fatalf("k=%d wcopt: %v", tc.k, err)
		}
		if got := goldenHash(res.Flow.X, res.Objective); got != tc.wcopt {
			t.Errorf("k=%d WorstCaseOptimal fingerprint %s, pinned %s (gamma bits %x)",
				tc.k, got, tc.wcopt, math.Float64bits(res.GammaWC))
		}
		if got := math.Float64bits(res.GammaWC); got != tc.gammaW {
			t.Errorf("k=%d WorstCaseOptimal gamma bits %x, pinned %x", tc.k, got, tc.gammaW)
		}

		res2, err := WorstCaseAtLocality(tor, 1.5, opts)
		if err != nil {
			t.Fatalf("k=%d wcloc: %v", tc.k, err)
		}
		if got := goldenHash(res2.Flow.X, res2.Objective); got != tc.wcloc {
			t.Errorf("k=%d WorstCaseAtLocality fingerprint %s, pinned %s", tc.k, got, tc.wcloc)
		}

		res3, err := MinLocalityAtWorstCase(tor, opts)
		if err != nil {
			t.Fatalf("k=%d lex: %v", tc.k, err)
		}
		wantH := math.Float64frombits(tc.lexH)
		if d := math.Abs(res3.HNorm - wantH); d > 1e-6*wantH {
			t.Errorf("k=%d MinLocalityAtWorstCase HNorm=%v, want ~%v (diff %v)",
				tc.k, res3.HNorm, wantH, d)
		}
		// Lexicographic contract: stage 2 must hold the stage-1 worst case
		// (up to the cap's convergence-tolerance slack).
		if d := math.Abs(res3.GammaWC - res.GammaWC); d > 1e-4*res.GammaWC {
			t.Errorf("k=%d lex GammaWC=%v drifted from wcopt %v", tc.k, res3.GammaWC, res.GammaWC)
		}
	}
}

// TestGoldenPathDesignFingerprints pins the k=4 2TURN and 2TURNA designs
// bit for bit, like the flow designs above: the hash covers the reported
// objective and the full flow of the routing the two-stage path LP returns.
func TestGoldenPathDesignFingerprints(t *testing.T) {
	if !goldenEngineDefault {
		t.Skip("fingerprints pin the eta engine's bit trajectory; lpdense swaps the default engine")
	}
	tor := topo.NewTorus(4)
	opts := Options{Workers: 1}
	tt, err := DesignTwoTurn(tor, opts)
	if err != nil {
		t.Fatalf("2TURN: %v", err)
	}
	if got, want := goldenHash(tt.Flow.X, tt.Objective), "e2ab53eb6ed20282"; got != want {
		t.Errorf("k=4 2TURN fingerprint %s, pinned %s", got, want)
	}
	tta, err := DesignTwoTurnAvg(tor, traffic.Sample(tor.N, 8, 31), opts)
	if err != nil {
		t.Fatalf("2TURNA: %v", err)
	}
	if got, want := goldenHash(tta.Flow.X, tta.Objective), "9919b3483d4fe52d"; got != want {
		t.Errorf("k=4 2TURNA fingerprint %s, pinned %s", got, want)
	}
}
