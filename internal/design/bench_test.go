package design

import (
	"context"
	"testing"

	"tcr/internal/topo"
)

// BenchmarkFactorizeLoopBasis measures one basis refresh (refactorize and
// recompute the basic values) of the basis a certified worst-case-optimal
// design ends with: the cut-laden basis the loop actually refactorizes,
// not the base LP's (lp.BenchmarkFactorize). Set-up runs the whole design
// once per sub-benchmark and is excluded from the timing.
func BenchmarkFactorizeLoopBasis(b *testing.B) {
	for _, spec := range []string{"torus2d:6", "mesh:4x4", "torus3d:3"} {
		b.Run(spec, func(b *testing.B) {
			tp, err := topo.Parse(spec)
			if err != nil {
				b.Fatal(err)
			}
			q := newPotentialLP(tp, false, Options{Workers: 1})
			res, err := q.solve(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if !res.Certified {
				b.Fatalf("uncertified: %s", res.Reason)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := q.solver.RefreshFactors(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(q.solver.NumRows()), "rows")
		})
	}
}
