package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tcr/internal/design"
	"tcr/internal/eval"
	"tcr/internal/serve"
	"tcr/internal/store"
)

// Serve workload shapes and client settings.
const (
	replayRate = 400.0
	mixedRate  = 150.0
	// conns is the connection cap per client lane, one per core.
	conns = 2
	// failedMS is the latency charged to a failed or refused request: every
	// limit misses it.
	failedMS = 60000.0
	// maxLateP50MS is the generator lateness past which a run is invalid.
	maxLateP50MS = 1.0
	// tenant is the online loop's tenant in serve-mixed.
	tenant = "bench"
	// onlineK is the daemon's online-loop radix (its default).
	onlineK = 4
)

// daemon is an in-process tcrd on a loopback listener.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

func startDaemon(dir string) (*daemon, error) {
	srv, err := serve.New(serve.Config{StoreDir: dir, SolveWorkers: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the listener, then waits for background re-solves to end.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// client is one lane of plain net/http connections to the daemon.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Duration(failedMS) * time.Millisecond}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(method, path string, body []byte, hdr map[string]string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// scrape reads /metrics into series -> value. Any malformed line fails.
func (c *client) scrape() (map[string]float64, error) {
	status, _, body, err := c.do(http.MethodGet, "/metrics", nil, nil)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", status)
	}
	return parseMetrics(body)
}

func parseMetrics(body []byte) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("scrape: line %d malformed: %q", n, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: line %d: %w", n, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is after minus before for every series matching prefix.
func delta(before, after map[string]float64, prefix string) float64 {
	d := 0.0
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			d += v - before[k]
		}
	}
	return d
}

// computeItem produces an artifact's canonical bytes directly through the
// compute layer, with the options the daemon uses for the same request.
func computeItem(ctx context.Context, it item, cache *eval.Cache, ckptDir string) ([]byte, error) {
	var art any
	var err error
	switch r := it.Req.(type) {
	case store.EvalRequest:
		art, err = serve.ComputeEval(ctx, r, cache, 1)
	case store.WorstPermRequest:
		art, err = serve.ComputeWorstPerm(ctx, r, cache, 1)
	case store.DesignRequest:
		var fp string
		if fp, err = it.fingerprint(); err != nil {
			return nil, err
		}
		var a *store.DesignArtifact
		a, err = serve.ComputeDesign(ctx, r, design.Options{Workers: 1, Checkpoint: filepath.Join(ckptDir, fp+".ckpt")})
		if err == nil && !a.Certified {
			err = fmt.Errorf("design %s uncertified: %s", it.Body, a.Reason)
		}
		art = a
	case store.ParetoRequest:
		art, err = serve.ComputePareto(ctx, r, design.Options{Workers: 1})
	default:
		return nil, fmt.Errorf("unknown request type %T", r)
	}
	if err != nil {
		return nil, err
	}
	return store.Encode(art)
}

// servePlant is a pre-warmed daemon plus what set-up learned: the expected
// bytes of every catalogue item.
type servePlant struct {
	d *daemon
	// lanes holds one client per request class.
	lanes  map[string]*client
	cat    []item
	expect [][]byte
}

func (p *servePlant) stop() error {
	for _, c := range p.lanes {
		c.close()
	}
	return p.d.stop()
}

// prewarm starts a daemon on a fresh store and fills it with the catalogue
// through its own HTTP API.
func prewarm(dir string, cat []item) (*servePlant, error) {
	d, err := startDaemon(dir)
	if err != nil {
		return nil, err
	}
	p := &servePlant{d: d, lanes: map[string]*client{}, cat: cat}
	for _, c := range classes {
		p.lanes[c] = newClient(d.base)
	}
	for _, it := range cat {
		status, _, body, err := p.lanes[classMiss].do(http.MethodPost, it.Path, it.Body, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		if err != nil {
			p.stop()
			return nil, fmt.Errorf("prewarm %s %s: %w", it.Path, it.Body, err)
		}
	}
	return p, nil
}

// setupServe pre-warms a daemon reps times, each on a fresh store, reports
// the median, and keeps the last. It then computes every catalogue item's
// expected bytes directly and checks the daemon replays exactly those.
func setupServe(ctx context.Context, cfg config, res *result) (*servePlant, error) {
	cat := catalogue(cfg.smoke)
	var plant *servePlant
	var secs []float64
	for i := 0; i < cfg.setupReps(3); i++ {
		if plant != nil {
			if err := plant.stop(); err != nil {
				return nil, err
			}
		}
		dir, err := os.MkdirTemp(cfg.dir, "store-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		plant, err = prewarm(dir, cat)
		if err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	res.setup(secs)
	res.record["catalogue"] = len(cat)

	ckpt, err := os.MkdirTemp(cfg.dir, "expect-")
	if err != nil {
		plant.stop()
		return nil, err
	}
	cache := eval.NewCacheLimit(0)
	plant.expect = make([][]byte, len(cat))
	for i, it := range cat {
		b, err := computeItem(ctx, it, cache, ckpt)
		if err != nil {
			plant.stop()
			return nil, fmt.Errorf("expected bytes of %s: %w", it.Body, err)
		}
		plant.expect[i] = b
		status, _, body, err := plant.lanes[classHit].do(http.MethodPost, it.Path, it.Body, nil)
		if err != nil || status != http.StatusOK || !bytes.Equal(body, b) {
			res.mismatch("replay of %s %s differs from the direct compute (status %d, err %v)", it.Path, it.Body, status, err)
		}
	}
	return plant, nil
}

// outcome is one request's fate. Times are offsets from the start of the
// measured phase: enq is when the generator released it, sent when a
// connection took it, done when its body was read.
type outcome struct {
	enq, sent, done time.Duration
	status          int
	degraded        bool
	err             error
	// wrong is set when a 200 came back with a body that fails its check.
	wrong error
	// body is kept for misses only, whose duplicate pairs are compared.
	body []byte
}

// send posts one request, fills its outcome and checks the body as soon as
// it arrives, so a run holds no response bodies but those of misses.
func send(p *servePlant, r *request, o *outcome, start time.Time) {
	var hdr map[string]string
	if r.Class == classObserve {
		hdr = map[string]string{"X-TCR-Tenant": tenant}
	}
	o.sent = time.Since(start)
	var h http.Header
	var body []byte
	o.status, h, body, o.err = p.lanes[r.Class].do(http.MethodPost, r.Path, r.Body, hdr)
	o.done = time.Since(start)
	o.degraded = h.Get("X-TCR-Degraded") != ""
	if o.err == nil && o.status == http.StatusOK && !o.degraded {
		o.wrong = checkBody(p, r, body)
	}
	if r.Class == classMiss {
		o.body = body
	}
}

// checkBody checks a 200 body: a hit must equal the direct compute's bytes,
// a miss must answer its request, an observe must accept its whole batch.
func checkBody(p *servePlant, r *request, body []byte) error {
	switch r.Class {
	case classHit:
		if !bytes.Equal(body, p.expect[r.Cat]) {
			return errors.New("bytes differ from the direct compute")
		}
	case classMiss:
		return checkMiss(r.Item, body)
	case classObserve:
		var resp struct {
			Accepted int `json:"accepted"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Accepted != len(r.Samples) {
			return fmt.Errorf("accepted %d of %d samples", resp.Accepted, len(r.Samples))
		}
	}
	return nil
}

// waitUntil returns at t. It sleeps in the nanosleep system call rather
// than on a runtime timer: the runtime rounds sub-millisecond timer waits
// up to a millisecond when a processor idles, which would make the
// generator itself the largest term of a hit's latency, and spinning
// instead keeps a processor from polling the network. The call returns
// early when a signal (such as the runtime's preemption signal) lands.
func waitUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR only cuts the sleep short; the loop resumes it.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// openLoop sends reqs on their schedule regardless of completions. Each
// request class has its own lane of conns connections, so a solve or an
// observe batch never holds a hit behind it at the client. A request waits
// in the generator while its lane is busy; its latency counts from when it
// was due.
func openLoop(p *servePlant, reqs []request) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	queues := map[string]chan int{}
	for _, c := range classes {
		// Sized to the schedule so the generator never blocks.
		queues[c] = make(chan int, len(reqs))
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, ch := range queues {
		for i := 0; i < conns; i++ {
			wg.Add(1)
			go func(ch chan int) {
				defer wg.Done()
				for i := range ch {
					send(p, &reqs[i], &out[i], start)
				}
			}(ch)
		}
	}
	for i := range reqs {
		waitUntil(start.Add(reqs[i].Due))
		out[i].enq = time.Since(start)
		queues[reqs[i].Class] <- i
	}
	for _, ch := range queues {
		close(ch)
	}
	wg.Wait()
	return out, time.Since(start)
}

// phase is one measured phase and its checked outcomes.
type phase struct {
	lat     map[string][]float64 // per class, ms
	all     []float64
	late    []float64 // generator lateness, ms
	ok      int
	good    int // ok and within its class limit
	failed  int
	span    time.Duration
	metrics map[string]float64 // /metrics deltas
}

// measure runs one open-loop phase with a /metrics scrape on each side
// and checks every response.
func measure(p *servePlant, reqs []request, limits map[string]float64, res *result) (*phase, error) {
	before, err := p.lanes[classHit].scrape()
	if err != nil {
		return nil, err
	}
	out, span := openLoop(p, reqs)
	after, err := p.lanes[classHit].scrape()
	if err != nil {
		return nil, err
	}
	ph := &phase{lat: map[string][]float64{}, span: span, metrics: map[string]float64{}}
	for i := range reqs {
		r, o := &reqs[i], &out[i]
		var twin *outcome
		if r.Dup {
			twin = &out[i-1]
		}
		l := ms(o.done - r.Due)
		if score(r, o, twin, res) {
			ph.ok++
			if l <= limits[r.Class] {
				ph.good++
			}
		} else {
			l = failedMS
			ph.failed++
		}
		ph.lat[r.Class] = append(ph.lat[r.Class], l)
		ph.all = append(ph.all, l)
		ph.late = append(ph.late, ms(o.enq-r.Due))
	}
	for _, name := range []string{"store_hits", "store_misses", "rejected", "observe_samples", "solve_seconds_count", "solve_seconds_sum"} {
		ph.metrics[name] = delta(before, after, "tcrd_"+name)
	}
	ph.metrics["degraded"] = delta(before, after, "tcrd_degraded_total")
	ph.metrics["resolves_ok"] = delta(before, after, `tcrd_resolves_total{outcome="ok"}`)
	ph.metrics["resolves_error"] = delta(before, after, `tcrd_resolves_total{outcome="error"}`)
	artifactReqs := 0.0
	for _, ep := range []string{"eval", "worstperm", "design", "pareto"} {
		artifactReqs += delta(before, after, fmt.Sprintf("tcrd_requests_total{endpoint=%q}", ep))
	}
	// Every artifact request and every re-solve is one hit or one miss
	// unless it joined an identical request already in flight.
	ph.metrics["coalesced"] = artifactReqs + ph.metrics["resolves_ok"] + ph.metrics["resolves_error"] - ph.metrics["store_hits"] - ph.metrics["store_misses"]
	ph.metrics["solve_max_s"] = after["tcrd_solve_seconds_max"]
	return ph, nil
}

// score counts one request: a transport error, a non-2xx status or a
// degraded (substituted) artifact is a failure; a 200 whose body is wrong,
// or a duplicate answered with different bytes than its twin, is a failure
// and a mismatch.
func score(r *request, o *outcome, twin *outcome, res *result) bool {
	if o.err != nil || o.status != http.StatusOK || o.degraded {
		res.attempt(false, "%s %s %s: status %d degraded %t err %v", r.Class, r.Path, r.Body, o.status, o.degraded, o.err)
		return false
	}
	err := o.wrong
	if err == nil && twin != nil && twin.err == nil && twin.status == http.StatusOK && !twin.degraded && !bytes.Equal(o.body, twin.body) {
		err = errors.New("duplicate pair answered with different bytes")
	}
	if err != nil {
		res.mismatch("%s %s %s: %v", r.Class, r.Path, r.Body, err)
	}
	res.attempt(err == nil, "%s %s %s: %v", r.Class, r.Path, r.Body, err)
	return err == nil
}

// checkMiss requires a freshly computed artifact to answer the request it
// was asked for, and a design to be certified within its locality budget.
func checkMiss(it item, body []byte) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var got any
	switch it.Req.(type) {
	case store.EvalRequest:
		var a store.EvalArtifact
		err := dec.Decode(&a)
		if err != nil {
			return err
		}
		if a.GammaWC <= 0 {
			return fmt.Errorf("gamma %v", a.GammaWC)
		}
		got = a.Request
	case store.WorstPermRequest:
		var a store.WorstPermArtifact
		if err := dec.Decode(&a); err != nil {
			return err
		}
		if !isPerm(a.Perm) {
			return errors.New("worst-case permutation is not a permutation")
		}
		got = a.Request
	case store.DesignRequest:
		var a store.DesignArtifact
		if err := dec.Decode(&a); err != nil {
			return err
		}
		if !a.Certified {
			return errors.New("uncertified design served")
		}
		if err := checkHNorm(&a); err != nil {
			return err
		}
		got = a.Request
	default:
		return fmt.Errorf("unexpected miss type %T", it.Req)
	}
	if !reflect.DeepEqual(got, it.Req) {
		return fmt.Errorf("answered request %+v", got)
	}
	return nil
}

func isPerm(p []int) bool {
	seen := make([]bool, len(p))
	for _, d := range p {
		if d < 0 || d >= len(p) || seen[d] {
			return false
		}
		seen[d] = true
	}
	return len(p) > 0
}

// report turns a phase into the end-to-end metrics and the run record.
// p50_ms is the hits' median on both serve workloads. On serve-mixed the
// misses' median followed the host's speed: it moved from 35 to 23 ms
// between two ten-seed sets half an hour apart, while the hits' held within
// a few percent (README.md).
func (ph *phase) report(res *result) {
	res.e2e("wall_s", ph.span.Seconds())
	res.latency(ph.lat[classHit])
	res.e2e("goodput_rps", float64(ph.good)/ph.span.Seconds())
	// The generator, not the server, was the bottleneck when it released
	// the typical request late: then the offered load fell short of the
	// schedule. Occasional lateness is the server's doing — it shares the
	// two cores with the generator.
	late50, late99 := percentile(ph.late, 50), percentile(ph.late, 99)
	valid := late50.Value <= maxLateP50MS
	res.record["generator_late_p50"] = late50
	res.record["generator_late_p99"] = late99
	res.record["valid"] = valid
	if !valid {
		res.note("run invalid: generator released the median request %.3f ms late", late50.Value)
	}
	counts := map[string]any{}
	for _, c := range classes {
		if xs := ph.lat[c]; len(xs) > 0 {
			counts[c] = map[string]pct{"p50": percentile(xs, 50), "p90": percentile(xs, 90), "p99": percentile(xs, 99)}
		}
	}
	res.record["classes"] = counts
	res.record["sent"] = len(ph.all)
}

// layers reports the traced run's load-generator and /metrics-delta
// metrics for a phase.
func (ph *phase) layers(res *result) {
	m := ph.metrics
	res.layer("loadgen.late_p99_ms", percentile(ph.late, 99).Value)
	res.layer("loadgen.sent", float64(len(ph.all)))
	res.layer("loadgen.ok", float64(ph.ok))
	res.layer("loadgen.failed", float64(ph.failed))
	res.layer("loadgen.hit_p99_ms", percentile(ph.lat[classHit], 99).Value)
	res.layer("loadgen.miss_p50_ms", percentile(ph.lat[classMiss], 50).Value)
	res.layer("loadgen.miss_p90_ms", percentile(ph.lat[classMiss], 90).Value)
	res.layer("loadgen.observe_p90_ms", percentile(ph.lat[classObserve], 90).Value)
	res.layer("serve.store_hits", m["store_hits"])
	res.layer("serve.store_misses", m["store_misses"])
	if n := m["store_hits"] + m["store_misses"]; n > 0 {
		res.layer("serve.hit_ratio", m["store_hits"]/n)
	}
	res.layer("serve.coalesced", m["coalesced"])
	res.layer("serve.rejected", m["rejected"])
	res.layer("serve.degraded", m["degraded"])
	res.layer("serve.solve_count", m["solve_seconds_count"])
	if n := m["solve_seconds_count"]; n > 0 {
		res.layer("serve.solve_mean_ms", 1000*m["solve_seconds_sum"]/n)
	}
	res.layer("serve.solve_max_ms", 1000*m["solve_max_s"])
	res.layer("serve.resolves_ok", m["resolves_ok"])
	res.layer("serve.resolves_error", m["resolves_error"])
	res.layer("serve.observe_samples", m["observe_samples"])
}

func runReplay(ctx context.Context, cfg config, res *result) error {
	rate := replayRate
	if cfg.smoke {
		rate = 50
	}
	gen := func(cat []item, dur time.Duration) []request { return replayStream(cfg.seed, cat, rate, dur) }
	return runServe(ctx, cfg, res, gen, map[string]float64{classHit: 5})
}

func runMixed(ctx context.Context, cfg config, res *result) error {
	rate := mixedRate
	if cfg.smoke {
		rate = 10
	}
	gen := func(cat []item, dur time.Duration) []request { return mixedStream(cfg.seed, cat, rate, dur) }
	return runServe(ctx, cfg, res, gen, map[string]float64{classHit: 50, classObserve: 200, classMiss: 2000})
}

// runServe is the shared body of the serve workloads: set up, run the
// measured phase, check it, and in a traced run drive the same requests
// through the layers directly. limits are the per-class latency budgets,
// in ms, that goodput counts successes against; they sit near each class's
// p99 as measured on the seed code, so goodput falls when a tail grows.
func runServe(ctx context.Context, cfg config, res *result, gen func(cat []item, dur time.Duration) []request, limits map[string]float64) error {
	plant, err := setupServe(ctx, cfg, res)
	if err != nil {
		return err
	}
	reqs := gen(plant.cat, time.Duration(cfg.seconds)*time.Second)
	heap := startHeapSampler()
	cpu0 := cpuTime()
	ph, err := measure(plant, reqs, limits, res)
	res.cpu(cpuTime()-cpu0, len(reqs))
	res.heap = heap.stop()
	if serr := plant.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	if cfg.workload == "serve-replay" && ph.metrics["store_misses"] != 0 {
		res.mismatch("serve-replay: %v store misses during the measured phase", ph.metrics["store_misses"])
	}
	ph.report(res)
	if !cfg.trace {
		return nil
	}
	ph.layers(res)
	return traceServe(ctx, cfg, plant, reqs, ph, res)
}
