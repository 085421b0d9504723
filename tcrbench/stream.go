package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"tcr/internal/online"
	"tcr/internal/store"
)

// item is one artifact request the daemon can serve: its store kind, the
// typed request (the fingerprint input) and the HTTP route and body.
type item struct {
	Kind string
	Path string
	Req  any
	Body []byte
}

func newItem(kind string, req any) item {
	b, err := json.Marshal(req)
	if err != nil {
		// The request types are plain structs of ints, floats and strings.
		panic(err)
	}
	return item{Kind: kind, Path: "/v1/" + kind, Req: req, Body: b}
}

// fingerprint is the request's store address.
func (it item) fingerprint() (string, error) { return store.Fingerprint(it.Kind, it.Req) }

// Request classes of the serve workloads.
const (
	classHit     = "hit"
	classMiss    = "miss"
	classObserve = "observe"
)

// classes lists the request classes in report order.
var classes = []string{classHit, classMiss, classObserve}

// request is one scheduled operation of a serve workload. Due is its send
// time as an offset from the start of the measured phase.
type request struct {
	ID    int64
	Due   time.Duration
	Class string
	// Cat is the catalogue index of a hit, -1 otherwise.
	Cat int
	// Item is set for hits and misses.
	Item item
	// Samples is the observe batch; Body then holds its NDJSON encoding.
	Samples []online.Sample
	Body    []byte
	Path    string
	// Dup marks the second request of a duplicate miss pair; its bytes must
	// equal its twin's.
	Dup bool
}

// evalAlgs are the closed-form algorithms the catalogue evaluates. GOALish
// is left out at k=10, where building its flow table alone takes over a
// second and would dominate set-up.
var evalAlgs = []string{"DOR", "DOR-yx", "VAL", "IVAL", "ROMM", "RLB", "RLBth", "O1TURN", "GOALish"}

// catalogue is the fixed set of artifacts set-up pre-warms into the store.
// Hits are drawn from it; misses are built so they never collide with it.
func catalogue(smoke bool) []item {
	var out []item
	radixes := []int{6, 8, 10}
	if smoke {
		radixes = []int{4}
	}
	for _, k := range radixes {
		for _, a := range evalAlgs {
			if k == 10 && a == "GOALish" {
				continue
			}
			out = append(out, newItem(store.KindEval, store.EvalRequest{K: k, Alg: a}))
		}
		for _, a := range []string{"DOR", "VAL", "IVAL", "ROMM", "RLB"} {
			out = append(out, newItem(store.KindWorstPerm, store.WorstPermRequest{K: k, Alg: a}))
		}
	}
	for _, h := range []float64{0, 1.1, 1.2, 1.3} {
		out = append(out, newItem(store.KindDesign, store.DesignRequest{K: 3, Kind: store.DesignWorstCase, HNorm: h}))
	}
	if smoke {
		return out
	}
	for _, h := range []float64{1.05, 1.1, 1.2, 1.3} {
		out = append(out, newItem(store.KindDesign, store.DesignRequest{K: 4, Kind: store.DesignWorstCase, HNorm: h}))
	}
	out = append(out, newItem(store.KindPareto, store.ParetoRequest{K: 4, HMin: 1, HMax: 1.5, Points: 5}))
	return out
}

// zipfHits draws catalogue indices with Zipf popularity over a seeded
// ranking of the catalogue, so each seed makes different items hot.
type zipfHits struct {
	rank []int
	z    *rand.Zipf
}

func newZipfHits(rng *rand.Rand, n int) *zipfHits {
	return &zipfHits{rank: rng.Perm(n), z: rand.NewZipf(rng, 1.1, 1, uint64(n-1))}
}

func (z *zipfHits) next() int { return z.rank[z.z.Uint64()] }

// poisson yields the due times of a Poisson arrival process of the given
// rate, ending before dur.
type poisson struct {
	rng  *rand.Rand
	rate float64
	t    time.Duration
	dur  time.Duration
}

func (p *poisson) next() (time.Duration, bool) {
	p.t += time.Duration(p.rng.ExpFloat64() / p.rate * float64(time.Second))
	return p.t, p.t < p.dur
}

// replayStream is the serve-replay schedule: Poisson arrivals at rate, each
// a catalogue hit drawn with Zipf popularity.
func replayStream(seed int64, cat []item, rate float64, dur time.Duration) []request {
	rng := rand.New(rand.NewSource(seed))
	hits := newZipfHits(rng, len(cat))
	arr := &poisson{rng: rng, rate: rate, dur: dur}
	var out []request
	for due, ok := arr.next(); ok; due, ok = arr.next() {
		c := hits.next()
		out = append(out, request{ID: int64(len(out) + 1), Due: due, Class: classHit, Cat: c, Item: cat[c], Body: cat[c].Body, Path: cat[c].Path})
	}
	return out
}

// The serve-mixed traffic shape. Hits take the arrivals left over.
const (
	missShare    = 0.06 // share of arrivals that are unique misses
	observeShare = 0.06 // share that are observe batches
	dupChance    = 0.1  // chance a miss is sent twice at once
	batchSize    = 64   // samples per observe batch
)

// missGen builds requests no catalogue entry and no earlier miss shares.
type missGen struct {
	rng   *rand.Rand
	perms []store.WorstPermRequest
	seeds map[int64]bool
	hnorm map[[2]float64]bool
}

func newMissGen(rng *rand.Rand, cat []item) *missGen {
	g := &missGen{rng: rng, seeds: map[int64]bool{}, hnorm: map[[2]float64]bool{}}
	have := map[store.WorstPermRequest]bool{}
	for _, it := range cat {
		switch r := it.Req.(type) {
		case store.WorstPermRequest:
			have[r] = true
		case store.DesignRequest:
			g.hnorm[[2]float64{float64(r.K), r.HNorm}] = true
		}
	}
	// Keep misses clear of the online loop's operating grid too, so a
	// re-solve never turns a scheduled miss into a hit.
	for i := 0; i <= 4; i++ {
		g.hnorm[[2]float64{4, 1 + 0.125*float64(i)}] = true
	}
	for _, k := range []int{3, 4, 5, 7} {
		for _, a := range evalAlgs[:len(evalAlgs)-1] {
			if r := (store.WorstPermRequest{K: k, Alg: a}); !have[r] {
				g.perms = append(g.perms, r)
			}
		}
	}
	rng.Shuffle(len(g.perms), func(i, j int) { g.perms[i], g.perms[j] = g.perms[j], g.perms[i] })
	return g
}

func (g *missGen) next() item {
	u := g.rng.Float64()
	switch {
	case u < 0.15 && len(g.perms) > 0:
		r := g.perms[0]
		g.perms = g.perms[1:]
		return newItem(store.KindWorstPerm, r)
	case u < 0.5:
		k := 3 + g.rng.Intn(2)
		for {
			h := 1.02 + math.Round(g.rng.Float64()*1800)/10000
			key := [2]float64{float64(k), h}
			if !g.hnorm[key] {
				g.hnorm[key] = true
				return newItem(store.KindDesign, store.DesignRequest{K: k, Kind: store.DesignWorstCase, HNorm: h})
			}
		}
	default:
		k := 8
		if g.rng.Float64() < 0.25 {
			k = 10
		}
		algs := evalAlgs[:len(evalAlgs)-1]
		for {
			seed := 1 + g.rng.Int63n(1<<40)
			if !g.seeds[seed] {
				g.seeds[seed] = true
				return newItem(store.KindEval, store.EvalRequest{K: k, Alg: algs[g.rng.Intn(len(algs))], Samples: 2 + g.rng.Intn(3), Seed: seed})
			}
		}
	}
}

// observeBatch builds one NDJSON batch for the online loop's side x side
// torus. Before the shift every node sends to its four torus neighbours,
// after it to its antipode. Each batch covers its pattern's pairs evenly,
// in seeded order, so the estimate settles within a phase and the
// controller re-arms; the shift then trips re-solves at a new locality
// target.
func observeBatch(rng *rand.Rand, side, size int, shifted bool) ([]online.Sample, []byte) {
	var pairs []online.Sample
	for src := 0; src < side*side; src++ {
		x, y := src%side, src/side
		at := func(dx, dy int) int { return (y+dy+side)%side*side + (x+dx+side)%side }
		if shifted {
			pairs = append(pairs, online.Sample{Src: src, Dst: at(side/2, side/2)})
			continue
		}
		for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			pairs = append(pairs, online.Sample{Src: src, Dst: at(d[0], d[1])})
		}
	}
	out := make([]online.Sample, 0, size)
	for len(out) < size {
		out = append(out, pairs...)
	}
	out = out[:size]
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	var b bytes.Buffer
	for _, s := range out {
		fmt.Fprintf(&b, "{\"src\":%d,\"dst\":%d}\n", s.Src, s.Dst)
	}
	return out, b.Bytes()
}

// mixedStream is the serve-mixed schedule: Poisson arrivals split into Zipf
// catalogue hits, unique misses (some sent as duplicate pairs) and observe
// batches whose traffic shifts halfway through.
func mixedStream(seed int64, cat []item, rate float64, dur time.Duration) []request {
	rng := rand.New(rand.NewSource(seed))
	hits := newZipfHits(rng, len(cat))
	misses := newMissGen(rng, cat)
	arr := &poisson{rng: rng, rate: rate, dur: dur}
	var out []request
	add := func(r request) {
		r.ID = int64(len(out) + 1)
		out = append(out, r)
	}
	for due, ok := arr.next(); ok; due, ok = arr.next() {
		u := rng.Float64()
		switch {
		case u < missShare:
			it := misses.next()
			r := request{Due: due, Class: classMiss, Cat: -1, Item: it, Body: it.Body, Path: it.Path}
			add(r)
			if rng.Float64() < dupChance {
				r.Dup = true
				add(r)
			}
		case u < missShare+observeShare:
			smp, body := observeBatch(rng, onlineK, batchSize, due >= dur/2)
			add(request{Due: due, Class: classObserve, Cat: -1, Samples: smp, Body: body, Path: "/v1/observe"})
		default:
			c := hits.next()
			add(request{Due: due, Class: classHit, Cat: c, Item: cat[c], Body: cat[c].Body, Path: cat[c].Path})
		}
	}
	return out
}

// streamBytes serializes a schedule exactly as the program receives it.
func streamBytes(reqs []request) []byte {
	var b bytes.Buffer
	for _, r := range reqs {
		fmt.Fprintf(&b, "%d %d %s %s %t %q\n", r.ID, r.Due, r.Class, r.Path, r.Dup, r.Body)
	}
	return b.Bytes()
}
