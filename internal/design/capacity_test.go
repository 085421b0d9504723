package design

import (
	"math"
	"testing"

	"tcr/internal/eval"
	"tcr/internal/topo"
)

func TestCapacityMatchesClosedForm(t *testing.T) {
	// The LP-computed capacity must match the congestion-bound closed form
	// on tori (balanced minimal routing attains it).
	for _, k := range []int{3, 4, 5} {
		tor := topo.NewTorus(k)
		got, err := NetworkCapacityLP(tor, Options{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want := eval.NetworkCapacity(tor)
		if math.Abs(got-want) > 1e-5*want {
			t.Fatalf("k=%d: LP capacity %v, closed form %v", k, got, want)
		}
	}
}

func TestCapacityFlowIsMinimalish(t *testing.T) {
	// A capacity-optimal routing needs no more than minimal average length
	// plus LP slack (extra hops only raise total load).
	tor := topo.NewTorus(4)
	res, err := Capacity(tor, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified {
		t.Fatalf("converged capacity LP not certified: %q", res.Reason)
	}
	if res.HNorm > 1+1e-6 {
		t.Fatalf("capacity-optimal HNorm %v > 1", res.HNorm)
	}
	if e := res.Flow.ConservationError(); e > 1e-6 {
		t.Fatalf("conservation error %v", e)
	}
}
