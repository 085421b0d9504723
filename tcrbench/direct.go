package main

import (
	"bytes"
	"container/list"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tcr/internal/design"
	"tcr/internal/eval"
	"tcr/internal/online"
	"tcr/internal/routing"
	"tcr/internal/serve"
	"tcr/internal/store"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// flowCacheEntries matches the daemon's default flow-table LRU.
const flowCacheEntries = 64

// lruMirror tracks which flow tables an eval.Cache of the same capacity
// holds, so the direct drive can count flow-cache hits the cache itself
// does not report.
type lruMirror struct {
	cap  int
	lru  *list.List
	pos  map[string]*list.Element
	hits int
	all  int
}

func newLRUMirror(cap int) *lruMirror {
	return &lruMirror{cap: cap, lru: list.New(), pos: map[string]*list.Element{}}
}

func (m *lruMirror) touch(key string) {
	m.all++
	if e, ok := m.pos[key]; ok {
		m.hits++
		m.lru.MoveToFront(e)
		return
	}
	m.pos[key] = m.lru.PushFront(key)
	if m.lru.Len() > m.cap {
		delete(m.pos, m.lru.Remove(m.lru.Back()).(string))
	}
}

// directPlant is the layer stack the traced run drives without HTTP: a
// store, a flow cache and an online manager, configured as the daemon
// configures its own.
type directPlant struct {
	st     *store.Store
	cache  *eval.Cache
	mirror *lruMirror
	mgr    *online.Manager
	dir    string
	trips  int
	// gets and getBytes count successful store reads and their payloads.
	gets, getBytes int
}

func newDirectPlant(ctx context.Context, cfg config, p *servePlant) (*directPlant, error) {
	dir, err := os.MkdirTemp(cfg.dir, "direct-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	mgr, err := online.NewManager(online.Config{Dir: filepath.Join(dir, "online"), Sketch: online.SketchConfig{N: onlineK * onlineK}})
	if err != nil {
		return nil, err
	}
	d := &directPlant{st: st, cache: eval.NewCacheLimit(flowCacheEntries), mirror: newLRUMirror(flowCacheEntries), mgr: mgr, dir: dir}
	// Pre-warm as set-up pre-warmed the daemon: the catalogue in the store,
	// its flow tables in the cache.
	for i, it := range p.cat {
		fp, err := it.fingerprint()
		if err != nil {
			return nil, err
		}
		if _, err := st.Put(it.Kind, fp, store.SchemaVersion, p.expect[i]); err != nil {
			return nil, err
		}
		if t, alg, ok := namedFlow(it); ok {
			if _, err := d.cache.Evaluate(ctx, t, alg, 1); err != nil {
				return nil, err
			}
			key, _ := eval.FlowKey(t, alg)
			d.mirror.touch(key)
		}
	}
	d.mirror.hits, d.mirror.all = 0, 0
	return d, nil
}

// namedFlow resolves the torus and closed-form algorithm behind an eval or
// worstperm request.
func namedFlow(it item) (topo.Topology, routing.Algorithm, bool) {
	var k int
	var name string
	switch r := it.Req.(type) {
	case store.EvalRequest:
		k, name = r.K, r.Alg
	case store.WorstPermRequest:
		k, name = r.K, r.Alg
	default:
		return nil, nil, false
	}
	alg, ok := routing.ByName(name)
	return topo.NewTorus(k), alg, ok
}

// drive runs the stream in order, as fast as it goes, through the layers'
// public functions, with a span around each call. It returns the wall time.
func (d *directPlant) drive(ctx context.Context, reqs []request, p *servePlant, tr *tracer, res *result) (time.Duration, error) {
	start := time.Now()
	for i := range reqs {
		r := &reqs[i]
		root, done := tr.open("direct."+r.Class, r.Item.Kind, r.ID)
		var err error
		if r.Class == classObserve {
			err = d.observe(ctx, r, root, tr)
		} else {
			err = d.artifact(ctx, r, root, p, tr, res)
		}
		done()
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// artifact is the store-or-compute spine the daemon runs for an artifact
// request, with the eval layer's steps timed on their own for eval misses.
func (d *directPlant) artifact(ctx context.Context, r *request, root int64, p *servePlant, tr *tracer, res *result) error {
	it := r.Item
	var fp string
	var err error
	tr.do("store.Fingerprint", it.Kind, root, r.ID, func() { fp, err = it.fingerprint() })
	if err != nil {
		return err
	}
	var payload []byte
	tr.do("store.Get", it.Kind, root, r.ID, func() { payload, _, err = d.st.Get(it.Kind, fp) })
	if err == nil {
		d.gets++
		d.getBytes += len(payload)
		if r.Class == classHit && !bytes.Equal(payload, p.expect[r.Cat]) {
			res.mismatch("direct %s %s: stored bytes differ", it.Path, it.Body)
		}
		return nil
	}
	if t, alg, ok := namedFlow(it); ok {
		key, _ := eval.FlowKey(t, alg)
		d.mirror.touch(key)
		if er, isEval := it.Req.(store.EvalRequest); isEval {
			if err := d.evalSteps(ctx, t, alg, er, root, tr); err != nil {
				return err
			}
		}
	}
	tr.do("serve.Compute", it.Kind, root, r.ID, func() { payload, err = computeItem(ctx, it, d.cache, d.dir) })
	if err != nil {
		return fmt.Errorf("direct compute %s: %w", it.Body, err)
	}
	if r.Class == classMiss {
		if cerr := checkMiss(it, payload); cerr != nil {
			res.mismatch("direct %s %s: %v", it.Path, it.Body, cerr)
		}
	}
	tr.do("store.Put", it.Kind, root, r.ID, func() { _, err = d.st.Put(it.Kind, fp, store.SchemaVersion, payload) })
	return err
}

// evalSteps times the eval layer's three steps for one eval request: the
// flow table (through the shared cache), the worst-case oracle and the
// average case.
func (d *directPlant) evalSteps(ctx context.Context, t topo.Topology, alg routing.Algorithm, r store.EvalRequest, root int64, tr *tracer) error {
	var f *eval.Flow
	var err error
	tr.do("eval.Cache.Evaluate", "", root, 0, func() { f, err = d.cache.Evaluate(ctx, t, alg, 1) })
	if err != nil {
		return err
	}
	tr.do("eval.WorstCaseCtx", "", root, 0, func() { _, _, err = f.WorstCaseCtx(ctx, 1) })
	if err != nil || r.Samples == 0 {
		return err
	}
	tr.do("eval.AvgCaseCtx", "", root, 0, func() { _, err = f.AvgCaseCtx(ctx, traffic.Sample(t.Nodes(), r.Samples, r.Seed), 1) })
	return err
}

// observe ingests one batch and steps the controller; a trip re-solves the
// online design warm from the previous one, as the daemon does, and
// publishes it.
func (d *directPlant) observe(ctx context.Context, r *request, root int64, tr *tracer) error {
	var dec online.Decision
	var err error
	tr.do("online.Manager", "ingest+step", root, r.ID, func() {
		if _, _, err = d.mgr.Ingest(tenant, r.Samples); err == nil {
			dec, err = d.mgr.Step(tenant)
		}
	})
	if err != nil || !dec.Trip {
		return err
	}
	d.trips++
	req := store.DesignRequest{K: onlineK, Kind: store.DesignWorstCase, HNorm: dec.TargetHNorm}
	fp, err := req.Fingerprint()
	if err != nil {
		return err
	}
	warm := filepath.Join(d.dir, "online-warm.ckpt")
	var art *store.DesignArtifact
	tr.do("serve.Compute", "resolve", root, r.ID, func() {
		art, err = serve.ComputeDesign(ctx, req, design.Options{Workers: 1, Checkpoint: filepath.Join(d.dir, fp+".ckpt"), WarmFrom: warm, FinalSnapshot: warm})
	})
	if err != nil {
		return fmt.Errorf("direct re-solve: %w", err)
	}
	if !art.Certified {
		return d.mgr.ResolveFailed(tenant)
	}
	b, err := store.Encode(art)
	if err != nil {
		return err
	}
	if _, err := d.st.Put(store.KindDesign, fp, store.SchemaVersion, b); err != nil {
		return err
	}
	return d.mgr.Published(tenant, fp, req.HNorm, dec.Estimate)
}

// traceServe is a serve workload's traced run. The measured HTTP phase has
// already run untraced; here the same stream is driven directly through
// the layers with a span around each call.
func traceServe(ctx context.Context, cfg config, p *servePlant, reqs []request, ph *phase, res *result) error {
	d, err := newDirectPlant(ctx, cfg, p)
	if err != nil {
		return err
	}
	tr := newTracer()
	wall, err := d.drive(ctx, reqs, p, tr, res)
	if err != nil {
		return err
	}
	res.record["direct_wall_s"] = wall.Seconds()
	res.layer("online.trips", float64(d.trips))
	if d.gets > 0 {
		res.layer("store.get_bytes", float64(d.getBytes)/float64(d.gets))
	}
	if d.mirror.all > 0 {
		res.layer("eval.cache_hit_ratio", float64(d.mirror.hits)/float64(d.mirror.all))
	}
	res.traceCost(tr)

	at := func(name, tag string, q float64) float64 { return percentile(tr.durations(name, tag), q).Value }
	res.layer("store.get_ms.p50", at("store.Get", "", 50))
	res.layer("store.get_ms.p99", at("store.Get", "", 99))
	res.layer("store.put_ms.p50", at("store.Put", "", 50))
	res.layer("store.put_ms.p99", at("store.Put", "", 99))
	res.layer("eval.flow_ms", at("eval.Cache.Evaluate", "", 50))
	res.layer("eval.worstcase_ms", at("eval.WorstCaseCtx", "", 50))
	res.layer("eval.avgcase_ms", at("eval.AvgCaseCtx", "", 50))
	res.layer("design.solve_ms.p50", at("serve.Compute", store.KindDesign, 50))
	res.layer("design.solve_ms.p90", at("serve.Compute", store.KindDesign, 90))
	res.layer("online.ingest_ms.p50", at("online.Manager", "", 50))
	res.layer("online.ingest_ms.p99", at("online.Manager", "", 99))
	// What HTTP adds to a hit: its end-to-end median minus the median of
	// the layer calls a hit makes (fingerprint and store read).
	res.layer("serve.overhead_p50_ms", percentile(ph.lat[classHit], 50).Value-at("direct."+classHit, "", 50))
	return res.writeTrace(cfg, tr)
}
