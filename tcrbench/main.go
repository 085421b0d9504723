// Command tcrbench is the repository's benchmark: it certifies a fixed set
// of routing designs and drives an in-process tcrd over loopback, checks
// every output, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as one JSON line. See README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// smoke shrinks every workload to a few seconds of small inputs; the
	// benchmark's own tests use it.
	smoke bool
	// dir holds the run's stores and trace files.
	dir string
}

// setupReps is how many times set-up runs so its median can be reported.
func (c config) setupReps(n int) int {
	if c.smoke {
		return 1
	}
	return n
}

var workloads = map[string]func(context.Context, config, *result) error{
	"design":       runDesign,
	"serve-replay": runReplay,
	"serve-mixed":  runMixed,
}

func main() {
	fs := flag.NewFlagSet("tcrbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "design, serve-replay or serve-mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.BoolVar(&cfg.smoke, "smoke", false, "run a few seconds of small inputs")
	fs.StringVar(&cfg.dir, "dir", ".bench_build", "directory for stores and traces")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = trace == 1
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcrbench:", err)
		os.Exit(1)
	}
	rec, err := json.Marshal(res.record)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcrbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res.output())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcrbench:", err)
		os.Exit(1)
	}
	fmt.Printf("record %s\n%s\n", rec, out)
}

// run executes one workload and returns its checked result.
func run(ctx context.Context, cfg config) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want design, serve-replay or serve-mixed)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("seconds %d out of range", cfg.seconds)
	}
	dir, err := filepath.Abs(filepath.Join(cfg.dir, "runs"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg.dir, err = os.MkdirTemp(dir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.dir)
	res := newResult(cfg)
	if err := fn(ctx, cfg, res); err != nil {
		return nil, err
	}
	return res, res.complete()
}

// metricDef is one reported metric.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user sees, reported by every workload with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"heap_live_p90_mb", "MB"},
	{"ok_frac", "frac"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"goodput_rps", "1/s"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit})
		}
	}
	for _, in := range designSet {
		add("s", "design."+in.Name+".s")
		if in.Pareto != nil {
			continue
		}
		add("count", "design."+in.Name+".rounds")
		add("s", "design."+in.Name+".lp_est_s")
		add("frac", "design."+in.Name+".oracle_share_est")
		add("ms", "eval.oracle_pass_ms."+in.Name)
	}
	for _, n := range baseLPs {
		add("ms", "lp.base_solve_ms."+n)
		add("count", "lp.base_pivots."+n, "lp.base_refactorizations."+n)
	}
	add("ms", "design.model_build_ms", "design.solve_ms.p50", "design.solve_ms.p90")
	add("ms", "eval.flow_ms", "eval.worstcase_ms", "eval.avgcase_ms")
	add("frac", "eval.cache_hit_ratio")
	add("ms", "store.get_ms.p50", "store.get_ms.p99")
	add("bytes", "store.get_bytes")
	add("ms", "store.put_ms.p50", "store.put_ms.p99")
	add("count", "serve.store_hits", "serve.store_misses")
	add("frac", "serve.hit_ratio")
	add("count", "serve.coalesced", "serve.rejected", "serve.degraded", "serve.solve_count")
	add("ms", "serve.solve_mean_ms", "serve.solve_max_ms")
	add("count", "serve.resolves_ok", "serve.resolves_error", "serve.observe_samples")
	add("ms", "serve.overhead_p50_ms")
	add("ms", "online.ingest_ms.p50", "online.ingest_ms.p99")
	add("count", "online.trips")
	add("ms", "loadgen.late_p99_ms")
	add("count", "loadgen.sent", "loadgen.ok", "loadgen.failed")
	add("ms", "loadgen.hit_p99_ms", "loadgen.miss_p50_ms", "loadgen.miss_p90_ms", "loadgen.observe_p90_ms")
	add("ms", "trace.overhead_ms")
	add("count", "trace.spans")
	return out
}()

// result accumulates one run's counts, checks and metrics.
type result struct {
	trace     bool
	attempted int
	failed    int
	wrong     int
	notes     []string
	values    map[string]float64
	record    map[string]any
	heap      heapStats
}

func newResult(cfg config) *result {
	return &result{
		trace:  cfg.trace,
		values: map[string]float64{},
		record: map[string]any{
			"workload":   cfg.workload,
			"seed":       cfg.seed,
			"seconds":    cfg.seconds,
			"trace":      cfg.trace,
			"smoke":      cfg.smoke,
			"go":         runtime.Version(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"nproc":      runtime.NumCPU(),
			"cpu":        cpuModel(),
		},
	}
}

// attempt counts one operation; a failed one keeps its reason for stderr.
func (r *result) attempt(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.note(format, args...)
	}
}

// mismatch records an output that came back but is wrong.
func (r *result) mismatch(format string, args ...any) {
	r.wrong++
	r.note(format, args...)
}

func (r *result) note(format string, args ...any) {
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func (r *result) e2e(name string, v float64) {
	if !r.trace {
		r.values[name] = v
	}
}

func (r *result) layer(name string, v float64) {
	if r.trace {
		r.values[name] = v
	}
}

// setup reports the median of the set-up repetitions.
func (r *result) setup(secs []float64) {
	r.e2e("setup_s", median(secs))
	r.record["setup_s"] = secs
}

// latency reports p50_ms over every operation. The record gives p90 and
// p99 too, each with the sample count and the samples beyond it; they are
// not end-to-end metrics because the host's stalls of the virtual CPUs set
// them (see README.md).
func (r *result) latency(lat []float64) {
	p50, p90, p99 := percentile(lat, 50), percentile(lat, 90), percentile(lat, 99)
	r.e2e("p50_ms", p50.Value)
	r.record["latency_ms"] = map[string]pct{"p50": p50, "p90": p90, "p99": p99}
}

// cpu reports the process CPU time of the measured phase per operation.
func (r *result) cpu(d time.Duration, ops int) {
	r.record["cpu_s"] = d.Seconds()
	if ops > 0 {
		r.e2e("cpu_ms_per_op", ms(d)/float64(ops))
	}
}

// writeTrace dumps the spans next to the run's other outputs.
func (r *result) writeTrace(cfg config, tr *tracer) error {
	dir := filepath.Join(filepath.Dir(filepath.Dir(cfg.dir)), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	r.record["trace_file"] = path
	return tr.write(path)
}

// traceCost reports the tracer's own overhead on the traced run: the
// measured per-span cost (traced minus untraced) times the spans recorded.
func (r *result) traceCost(tr *tracer) {
	n := tr.count()
	r.layer("trace.spans", float64(n))
	r.layer("trace.overhead_ms", ms(spanCost(100000))*float64(n))
}

// complete fills the metrics every run reports and rejects a run that
// produced a metric outside its table or a non-finite value.
func (r *result) complete() error {
	r.record["heap_live"] = r.heap
	r.e2e("heap_live_p90_mb", r.heap.P90MB)
	if r.attempted > 0 {
		r.e2e("ok_frac", float64(r.attempted-r.failed)/float64(r.attempted))
	}
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
	}
	for name, v := range r.values {
		if !known[name] {
			return fmt.Errorf("metric %q is not in the %s table", name, map[bool]string{false: "end-to-end", true: "per-layer"}[r.trace])
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %q is %v", name, v)
		}
	}
	if !r.trace {
		for _, d := range defs {
			if _, ok := r.values[d.Name]; !ok {
				return fmt.Errorf("end-to-end metric %q was not measured", d.Name)
			}
		}
	}
	if r.attempted == 0 {
		return fmt.Errorf("no operation attempted")
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "tcrbench:", n)
	}
	return nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func (r *result) output() output {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	o := output{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		o.Metrics[d.Name] = metricOut{Value: r.values[d.Name], Unit: d.Unit}
	}
	return o
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
