package main

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/worksheet"
)

// variantSpace is the number of distinct worksheets the generator can
// name: the three paper case studies, each with its clock and
// per-element throughput swept over a fine grid.
const variantSpace = 1_000_000

// cases are the paper's three case studies (Tables 3, 6 and 9).
var cases = [3]core.Parameters{paper.PDF1DParams(), paper.PDF2DParams(), paper.MDParams()}

// variantParams returns worksheet v of the variant space. Every
// variant is a valid worksheet with a finite prediction, and no two
// variants share a canonical cache key.
func variantParams(v uint64) core.Parameters {
	p := cases[v%3]
	r := v / 3 // 0 .. 333_333
	p.Comp.ClockHz = core.MHz(50 + float64(r%1000)*0.2)
	p.Comp.ThroughputProc *= 1 + float64(r/1000)*0.005
	return p
}

// defaultCacheSize is ratd's default response-cache capacity
// (server.Config.CacheSize), which the benchmark runs with.
const defaultCacheSize = 1024

// streamSpec describes one predict request stream.
type streamSpec struct {
	ranks     uint64  // Zipf support: ranks 0 .. ranks-1
	zipfS     float64 // Zipf exponent (> 1)
	zipfV     float64 // Zipf offset (>= 1); larger flattens the head
	multiFrac float64 // share of requests asking ?devices=N&topology=T
	altFrac   float64 // share of requests in the indented serialization
}

// hotSpec: 256 variants, all of which fit the default 1024-entry cache.
var hotSpec = streamSpec{ranks: 256, zipfS: 1.2, zipfV: 1, altFrac: 0.02}

// tailSpec: a Zipf over the whole variant space, flat enough at the
// head that most requests miss the default 1024-entry cache (the
// stated range is 65-90%, checked by TestTailMissShare), with one
// request in five going down the multi-device path.
var tailSpec = streamSpec{ranks: variantSpace, zipfS: 1.1, zipfV: 60, multiFrac: 0.2, altFrac: 0.02}

// request is one generated predict request.
type request struct {
	body  []byte
	query string // "" or "devices=N&topology=T"
	multi bool
}

// path is the request's URL path and query.
func (r *request) path() string {
	if r.query == "" {
		return "/v1/predict"
	}
	return "/v1/predict?" + r.query
}

// stream draws a deterministic sequence of predict requests. Ranks
// come from a seeded Zipf; a seeded affine bijection maps ranks onto
// the variant space, so each seed has its own popular set.
type stream struct {
	spec streamSpec
	rng  *rand.Rand
	zipf *rand.Zipf
	a, b uint64
}

// newStream returns stream sub of the given seed. Substreams of one
// seed are independent, so each generator connection draws its own.
func newStream(spec streamSpec, seed, sub int64) *stream {
	rng := rand.New(rand.NewSource(seed*1_000_003 + sub))
	a, b := affine(seed)
	return &stream{
		spec: spec,
		rng:  rng,
		zipf: rand.NewZipf(rng, spec.zipfS, spec.zipfV, spec.ranks-1),
		a:    a,
		b:    b,
	}
}

// affine derives the seed's rank-to-variant bijection v = (a*rank+b)
// mod variantSpace; a is coprime to 2^6*5^6.
func affine(seed int64) (a, b uint64) {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	a = (h>>17)%variantSpace | 1
	for a%5 == 0 {
		a += 2
	}
	return a, (h >> 5) % variantSpace
}

func (s *stream) next() request {
	rank := s.zipf.Uint64()
	v := (s.a*rank + s.b) % variantSpace
	var r request
	if s.spec.multiFrac > 0 && s.rng.Float64() < s.spec.multiFrac {
		r.multi = true
		devices := 2 << s.rng.Intn(3) // 2, 4 or 8
		topo := "shared"
		if s.rng.Intn(2) == 1 {
			topo = "independent"
		}
		r.query = "devices=" + strconv.Itoa(devices) + "&topology=" + topo
	}
	r.body = worksheetBody(variantParams(v), s.spec.altFrac > 0 && s.rng.Float64() < s.spec.altFrac)
	return r
}

// take draws n requests.
func (s *stream) take(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// worksheetBody renders a worksheet in the compact JSON form, or in
// the indented form of worksheet.EncodeJSON when alt is set. Both
// decode to the same parameters, so an alt request misses the
// raw-request alias but hits the canonical cache key.
func worksheetBody(p core.Parameters, alt bool) []byte {
	if alt {
		var buf bytes.Buffer
		if err := worksheet.EncodeJSON(&buf, p); err != nil {
			panic(err) // variants are finite by construction
		}
		return buf.Bytes()
	}
	b, err := json.Marshal(worksheet.DocFromParams(p))
	if err != nil {
		panic(err)
	}
	return b
}

// expectedPredict is the reference answer for a predict request: the
// body decoded by the encoding/json worksheet reader, evaluated by
// core.Predict or core.PredictMulti, and rendered by encoding/json.
// The server's reply must match it byte for byte.
func expectedPredict(r *request) ([]byte, error) {
	p, err := worksheet.DecodeJSON(bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	var out []byte
	if r.multi {
		cfg, err := multiConfig(r.query)
		if err != nil {
			return nil, err
		}
		mp, err := core.PredictMulti(p, cfg)
		if err != nil {
			return nil, err
		}
		out, err = json.Marshal(api.MultiPredictionFromCore(mp))
		if err != nil {
			return nil, err
		}
	} else {
		pr, err := core.Predict(p)
		if err != nil {
			return nil, err
		}
		out, err = json.Marshal(api.PredictionFromCore(pr))
		if err != nil {
			return nil, err
		}
	}
	return append(out, '\n'), nil
}

// multiConfig parses the generator's own devices/topology query.
func multiConfig(q string) (core.MultiConfig, error) {
	var cfg core.MultiConfig
	for _, kv := range bytes.Split([]byte(q), []byte("&")) {
		k, v, _ := bytes.Cut(kv, []byte("="))
		switch string(k) {
		case "devices":
			n, err := strconv.Atoi(string(v))
			if err != nil {
				return cfg, err
			}
			cfg.Devices = n
		case "topology":
			t, err := api.ParseTopology(string(v))
			if err != nil {
				return cfg, err
			}
			cfg.Topology = t
		}
	}
	return cfg, nil
}

// cacheModel replays a request sequence through a model of ratd's
// response cache (internal/server/cache.go): an LRU of entries keyed by
// canonical parameters, each with at most one raw-request alias. It
// classifies every request as a raw-alias hit, a canonical-key hit or
// a miss, which the server's own counters cannot tell apart.
type cacheModel struct {
	max   int
	ll    *list.List
	items map[string]*list.Element
	raw   map[string]*list.Element
	key   []byte

	rawHits, canonHits, misses, multi int
}

type modelEntry struct{ key, raw string }

func newCacheModel(max int) *cacheModel {
	return &cacheModel{max: max, ll: list.New(), items: map[string]*list.Element{}, raw: map[string]*list.Element{}}
}

func (c *cacheModel) observe(r *request) {
	if r.multi {
		c.multi++
	}
	raw := r.query + "\x00" + string(r.body)
	if e, ok := c.raw[raw]; ok {
		c.ll.MoveToFront(e)
		c.rawHits++
		return
	}
	p, err := worksheet.DecodeJSON(bytes.NewReader(r.body))
	if err != nil {
		panic(err) // generated bodies always decode
	}
	c.key = canonicalKey(c.key[:0], &p, r.query)
	if e, ok := c.items[string(c.key)]; ok {
		c.ll.MoveToFront(e)
		c.alias(e, raw)
		c.canonHits++
		return
	}
	c.misses++
	k := string(c.key)
	e := c.ll.PushFront(&modelEntry{key: k})
	c.items[k] = e
	c.alias(e, raw)
	if c.ll.Len() > c.max {
		old := c.ll.Back()
		c.ll.Remove(old)
		me := old.Value.(*modelEntry)
		delete(c.items, me.key)
		if me.raw != "" {
			delete(c.raw, me.raw)
		}
	}
}

func (c *cacheModel) alias(e *list.Element, raw string) {
	me := e.Value.(*modelEntry)
	if me.raw == raw {
		return
	}
	if prev, ok := c.raw[raw]; ok && prev != e {
		prev.Value.(*modelEntry).raw = ""
	}
	if me.raw != "" {
		delete(c.raw, me.raw)
	}
	me.raw = raw
	c.raw[raw] = e
}

// canonicalKey identifies the exact bits a prediction consumes, so two
// requests share a key iff the server computes the same answer.
func canonicalKey(dst []byte, p *core.Parameters, query string) []byte {
	dst = append(dst, p.Name...)
	dst = append(dst, 0)
	dst = append(dst, query...)
	for _, f := range [...]float64{
		float64(p.Dataset.ElementsIn), float64(p.Dataset.ElementsOut), p.Dataset.BytesPerElement,
		p.Comm.IdealThroughput, p.Comm.AlphaWrite, p.Comm.AlphaRead,
		p.Comp.OpsPerElement, p.Comp.ThroughputProc, p.Comp.ClockHz,
		p.Soft.TSoft, float64(p.Soft.Iterations),
	} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

// shares are a request sequence's measured property shares.
type shares struct {
	RawHit, CanonHit, Miss, Multi float64
}

func (c *cacheModel) shares() shares {
	n := float64(c.rawHits + c.canonHits + c.misses)
	if n == 0 {
		return shares{}
	}
	return shares{
		RawHit:   float64(c.rawHits) / n,
		CanonHit: float64(c.canonHits) / n,
		Miss:     float64(c.misses) / n,
		Multi:    float64(c.multi) / n,
	}
}
