package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestStreamsRepeatPerSeed(t *testing.T) {
	cat := catalogue(false)
	gens := map[string]func(seed int64) []request{
		"serve-replay": func(seed int64) []request { return replayStream(seed, cat, replayRate, 5*time.Second) },
		"serve-mixed":  func(seed int64) []request { return mixedStream(seed, cat, mixedRate, 5*time.Second) },
	}
	for name, gen := range gens {
		a, b, c := streamBytes(gen(7)), streamBytes(gen(7)), streamBytes(gen(8))
		if len(a) == 0 {
			t.Fatalf("%s: empty stream", name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

func TestMixedStreamHasEveryClass(t *testing.T) {
	reqs := mixedStream(3, catalogue(false), mixedRate, 20*time.Second)
	seen := map[string]int{}
	dups := 0
	for i, r := range reqs {
		seen[r.Class]++
		if r.Dup {
			dups++
			if i == 0 || !bytes.Equal(reqs[i-1].Body, r.Body) {
				t.Fatalf("request %d: duplicate without its twin before it", r.ID)
			}
		}
	}
	for _, c := range classes {
		if seen[c] == 0 {
			t.Errorf("no %s requests in %v", c, seen)
		}
	}
	if dups == 0 {
		t.Error("no duplicate miss pairs")
	}
}

func TestPercentileBeyondRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so the helper must sort
		}
		return xs
	}
	cases := []struct {
		n         int
		q         float64
		value     float64
		beyond    int
		supported bool
	}{
		{1000, 99, 990, 10, true},
		{999, 99, 990, 9, false},
		{100, 90, 90, 10, true},
		{20, 50, 10, 10, true},
		{1, 99, 1, 0, false},
	}
	for _, c := range cases {
		p := percentile(seq(c.n), c.q)
		if p.Value != c.value || p.Beyond != c.beyond || p.N != c.n || p.Supported != c.supported {
			t.Errorf("p%v of 1..%d = %+v (supported %t), want value %v beyond %d supported %t",
				c.q, c.n, p, p.Supported, c.value, c.beyond, c.supported)
		}
	}
	if p := percentile(nil, 50); p.N != 0 || p.Supported {
		t.Errorf("empty sample: %+v", p)
	}
}

// TestMetricTablesMatchBenchmarkJSON pins the metric names and units the
// program prints to the ones BENCHMARK.json declares.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(table string, code []metricDef, declared []struct{ Name, Unit string }) {
		if len(code) != len(declared) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", table, len(code), len(declared))
			return
		}
		seen := map[string]bool{}
		for i, d := range code {
			if !name.MatchString(d.Name) {
				t.Errorf("%s: bad metric name %q", table, d.Name)
			}
			if seen[d.Name] {
				t.Errorf("%s: duplicate metric %q", table, d.Name)
			}
			seen[d.Name] = true
			if declared[i].Name != d.Name || declared[i].Unit != d.Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", table, i, d.Name, d.Unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
}

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics([]byte("# HELP x\ntcrd_store_hits_total 3\ntcrd_requests_total{endpoint=\"eval\"} 5\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m["tcrd_store_hits_total"] != 3 || m[`tcrd_requests_total{endpoint="eval"}`] != 5 {
		t.Errorf("parsed %v", m)
	}
	for _, bad := range []string{"novalue\n", "tcrd_x abc\n"} {
		if _, err := parseMetrics([]byte(bad)); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
	before := map[string]float64{`a{x="1"}`: 1, `a{x="2"}`: 2}
	after := map[string]float64{`a{x="1"}`: 4, `a{x="2"}`: 3, `b`: 9}
	if d := delta(before, after, "a{"); d != 4 {
		t.Errorf("delta = %v, want 4", d)
	}
}

// TestSmoke runs every workload briefly on small inputs, untraced and
// traced, and requires a clean, complete result.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs solvers and an in-process daemon")
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 1, seconds: 1, trace: trace, smoke: true, dir: t.TempDir()}
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			out := res.output()
			if !out.Correct || out.Attempted == 0 || out.Failed != 0 {
				t.Errorf("%s trace=%t: correct %t attempted %d failed %d: %v", name, trace, out.Correct, out.Attempted, out.Failed, res.notes)
			}
			want := len(endToEnd)
			if trace {
				want = len(perLayer)
			}
			if len(out.Metrics) != want {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, trace, len(out.Metrics), want)
			}
			if b, err := json.Marshal(out); err != nil || !json.Valid(b) {
				t.Errorf("%s trace=%t: result does not encode: %v", name, trace, err)
			}
		}
	}
}
