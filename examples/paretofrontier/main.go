// Pareto frontier: solve the locality-constrained worst-case design LPs of
// Section 5.1 on a 4-ary 2-cube (small enough to finish in about a minute), then
// design 2TURN over the two-turn path space and confirm it sits on the
// frontier's maximum-throughput end — the k=4 case where Figure 4 shows
// 2TURN matching the optimal exactly.
package main

import (
	"fmt"
	"log"

	"tcr"
)

func main() {
	t := tcr.NewTorus(4)

	hs := []float64{1.0, 1.2, 1.4, 1.6, 1.8, 2.0}
	pts, err := tcr.WorstCaseParetoCurve(t, hs, tcr.DesignOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("optimal tradeoff on the 4-ary 2-cube (throughput as fraction of capacity):")
	fmt.Println("locality<=L   best worst-case throughput")
	for _, p := range pts {
		fmt.Printf("%11.2f   %26.4f\n", p.HNorm, p.Theta)
	}

	tt, err := tcr.Design2Turn(t, tcr.DesignOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if !tt.Certified {
		log.Fatalf("2TURN not certified: %s", tt.Reason)
	}
	m, err := tcr.Report(t, tt.Table, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n2TURN (LP-weighted two-turn paths): locality %.4f, worst case %.4f of capacity\n",
		m.HNorm, m.WorstCaseFraction)

	opt, err := tcr.OptimalLocalityAtMaxWorstCase(t, tcr.DesignOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if !opt.Certified {
		log.Fatalf("optimal locality not certified: %s", opt.Reason)
	}
	fmt.Printf("unrestricted optimal at max worst case: locality %.4f\n", opt.HNorm)
	fmt.Printf("gap: %.2f%% (the paper's Figure 4 shows 2TURN matching exactly at k=4)\n",
		100*(m.HNorm-opt.HNorm)/opt.HNorm)
}
