package design

import (
	"testing"

	"tcr/internal/lp"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// TestIterationsSumPerSolve holds every cutting-plane entry point's reported
// work totals against the solver's own per-solve counts: Result.Iterations
// and Result.Refactorizations must be the sums of the Diagnostics fields
// over the loop's LP solves, not the last round's counts.
func TestIterationsSumPerSolve(t *testing.T) {
	tor := topo.NewTorus(4)
	samples := traffic.Sample(tor.N, 4, 17)
	cases := []struct {
		name string
		run  func(Options) (*Result, error)
	}{
		{"design.go", func(o Options) (*Result, error) {
			o.Cuts = CutPermutations
			return WorstCaseOptimal(tor, o)
		}},
		{"potentials.go", func(o Options) (*Result, error) { return WorstCaseOptimal(tor, o) }},
		{"avgcase.go", func(o Options) (*Result, error) { return AvgCaseOptimal(tor, samples, o) }},
		{"capacity.go", func(o Options) (*Result, error) { return Capacity(tor, o) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sum, refacs, solves := 0, 0, 0
			opts := Options{Workers: 1, onSolve: func(d lp.Diagnostics) {
				sum += d.Iterations
				refacs += d.Refactorizations
				solves++
			}}
			res, err := tc.run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if solves != res.Rounds {
				t.Errorf("%d solves observed for %d rounds", solves, res.Rounds)
			}
			if res.Iterations != sum {
				t.Errorf("Result.Iterations = %d, per-solve sum %d over %d solves",
					res.Iterations, sum, solves)
			}
			if res.Refactorizations != refacs {
				t.Errorf("Result.Refactorizations = %d, per-solve sum %d", res.Refactorizations, refacs)
			}
		})
	}
}

// TestWorstCaseRoundsTakeNoBlandPivots pins the dual stall detector: a
// healthy k=4 wcopt cut loop never falls back to Bland's rule, in either
// simplex driver.
func TestWorstCaseRoundsTakeNoBlandPivots(t *testing.T) {
	var bland, solves int
	opts := Options{Workers: 1, onSolve: func(d lp.Diagnostics) {
		bland += d.BlandPivots
		solves++
	}}
	res, err := WorstCaseOptimal(topo.NewTorus(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified || solves == 0 {
		t.Fatalf("certified=%v after %d solves", res.Certified, solves)
	}
	if bland != 0 {
		t.Errorf("%d Bland pivots over %d round solves, want 0", bland, solves)
	}
}
