package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/explore"
	"github.com/chrec/rat/internal/obs"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/worksheet"
)

// tally counts one phase's operations. Failed includes wrong: a 2xx
// answer that differs from the reference is a failed operation.
type tally struct {
	Attempted, OK, Failed, Wrong int64
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.OK += o.OK
	t.Failed += o.Failed
	t.Wrong += o.Wrong
}

// record counts one operation: err or a non-2xx status is a failure,
// a 2xx body that is not the reference is a wrong answer.
func (t *tally) record(err error, status int, correct bool) bool {
	t.Attempted++
	switch {
	case err != nil || status < 200 || status > 299:
		t.Failed++
		return false
	case !correct:
		t.Failed++
		t.Wrong++
		return false
	}
	t.OK++
	return true
}

// stageNames are the X-Rat-Stages fields, in header order.
var stageNames = [...]string{"admission", "cache", "batch_wait", "kernel", "encode"}

// exchange is one HTTP request/response seen by the generator. The
// httptrace marks are filled only on traced requests.
type exchange struct {
	status  int
	body    []byte // valid until the connection's next request
	stages  [len(stageNames)]time.Duration
	reused  bool
	gotConn time.Time
	wrote   time.Time
	first   time.Time
	done    time.Time
}

// conn is one generator connection: a pinned keep-alive socket, a
// reusable response buffer and a bounded memo of reference answers.
type conn struct {
	id   int
	hc   *http.Client
	buf  bytes.Buffer
	memo map[string][]byte
	seq  uint32
}

func newConns(n int) []*conn {
	cs := make([]*conn, n)
	for i := range cs {
		cs[i] = &conn{id: i + 1, hc: connClient(), memo: map[string][]byte{}}
	}
	return cs
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// post sends one JSON POST. A traced request carries an X-Rat-Trace
// identity and asks for the X-Rat-Stages breakdown, and its client
// side is timed with httptrace.
func (c *conn) post(ctx context.Context, url string, body []byte, key string, traced bool) (exchange, error) {
	var ex exchange
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return ex, err
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-Rat-Key", key)
	}
	if traced {
		c.seq++
		req.Header.Set(obs.TraceHeader, fmt.Sprintf("%016x-%08x", uint64(c.id)<<32|uint64(c.seq), c.seq))
		req.Header.Set(obs.StagesHeader, "1")
		req = req.WithContext(httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) {
				ex.gotConn, ex.reused = time.Now(), info.Reused
			},
			WroteRequest:         func(httptrace.WroteRequestInfo) { ex.wrote = time.Now() },
			GotFirstResponseByte: func() { ex.first = time.Now() },
		}))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return ex, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	ex.done = time.Now()
	ex.status = resp.StatusCode
	ex.body = c.buf.Bytes()
	if traced {
		ex.stages = parseStages(resp.Header.Get(obs.StagesHeader))
	}
	return ex, err
}

// parseStages reads "admission=N;cache=N;..." (nanoseconds).
func parseStages(h string) [len(stageNames)]time.Duration {
	var out [len(stageNames)]time.Duration
	for _, kv := range strings.Split(h, ";") {
		k, v, _ := strings.Cut(kv, "=")
		for i, name := range stageNames {
			if k == name {
				n, _ := strconv.ParseInt(v, 10, 64)
				out[i] = time.Duration(n)
			}
		}
	}
	return out
}

// expected returns the reference answer for r, memoised per
// connection; the memo is dropped when it outgrows a few thousand
// entries, so a long tail stream cannot grow it without bound.
func (c *conn) expected(r *request) ([]byte, error) {
	k := r.query + "\x00" + string(r.body)
	if b, ok := c.memo[k]; ok {
		return b, nil
	}
	b, err := expectedPredict(r)
	if err != nil {
		return nil, err
	}
	if len(c.memo) >= 4096 {
		c.memo = map[string][]byte{}
	}
	c.memo[k] = b
	return b, nil
}

// predict sends r and checks the answer byte for byte.
func (c *conn) predict(ctx context.Context, base, key string, r *request, traced bool, t *tally) (exchange, bool) {
	ex, err := c.post(ctx, base+r.path(), r.body, key, traced)
	correct := false
	if err == nil && ex.status == http.StatusOK {
		want, werr := c.expected(r)
		correct = werr == nil && bytes.Equal(ex.body, want)
	}
	return ex, t.record(err, ex.status, correct)
}

// waitUntil sleeps on the kernel timer until shortly before t, then
// yields until t: at the cost of a few tens of microseconds of CPU per
// request it sends within microseconds of the due time.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 150*time.Microsecond {
		sleepFor(d - 100*time.Microsecond)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// openSample is one open-loop request as the generator saw it.
type openSample struct {
	lat     time.Duration // from the due time to the end of the response
	late    time.Duration // send time minus due time, on an idle connection
	idle    bool          // a connection was free before the due time
	backlog int           // requests overdue when this one was sent
	sent    time.Time     // when the generator handed the request to net/http
	status  int
	ok      bool
	traced  bool
	ex      exchange
}

// openResult is an open-loop phase.
type openResult struct {
	samples []openSample
	reqs    []request
	elapsed time.Duration
	tally   tally
}

// split drops the first warm requests and separates the rest into
// untraced and traced requests.
func (r openResult) split(warm int) (untraced, traced openResult) {
	warm = min(warm, len(r.samples)/2)
	for i := warm; i < len(r.samples); i++ {
		dst := &untraced
		if r.samples[i].traced {
			dst = &traced
		}
		dst.samples = append(dst.samples, r.samples[i])
		dst.reqs = append(dst.reqs, r.reqs[i])
	}
	for _, o := range []*openResult{&untraced, &traced} {
		o.elapsed = r.elapsed * time.Duration(len(o.samples)) / time.Duration(len(r.samples))
		for _, smp := range o.samples {
			o.tally.record(nil, smp.status, smp.ok)
		}
	}
	return untraced, traced
}

// openLoop sends reqs on a fixed schedule of rate requests per second
// over the given connections. A request is due at start+i/rate
// whatever happened to earlier ones; latency is timed from the due
// time, so a stall is charged to every request queued behind it.
// Requests that found every connection busy are counted as backlog,
// not as generator lateness. traced, when not nil, picks the requests
// that carry a trace.
func openLoop(ctx context.Context, cs []*conn, base, key string, reqs []request, rate float64, traced func(int) bool) openResult {
	period := time.Duration(float64(time.Second) / rate)
	samples := make([]openSample, len(reqs))
	tallies := make([]tally, len(cs))
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for ci, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(time.Duration(i) * period)
				s := &samples[i]
				if now := time.Now(); now.Before(due) {
					waitUntil(due)
					s.idle, s.late = true, time.Since(due)
				} else {
					s.backlog = int(now.Sub(start)/period) - i
				}
				s.traced = traced != nil && traced(i)
				s.sent = time.Now()
				ex, ok := c.predict(ctx, base, key, &reqs[i], s.traced, &tallies[ci])
				s.lat, s.ok, s.status = time.Since(due), ok, ex.status
				if s.traced {
					ex.body = nil
					s.ex = ex
				}
			}
		}()
	}
	wg.Wait()
	res := openResult{samples: samples, reqs: reqs, elapsed: time.Since(start)}
	for _, t := range tallies {
		res.tally.add(t)
	}
	return res
}

// openStats summarises an open-loop phase. Failed requests count as
// infinitely slow, so they miss every latency percentile.
//
// p50 and p99 are medians over windows of consecutive requests, 250
// for p50 and 1000 for p99 (so each window's p99 has ten samples
// beyond it): the host's own stalls, which come in bursts, then move
// a few windows rather than the whole phase. The pooled percentiles
// are kept beside them.
type openStats struct {
	p50, p99             float64 // µs from due time, median over windows
	pooledP50, pooledP99 float64 // µs from due time, over the whole phase
	lateP50, lateP99     float64 // µs, idle-connection sends only
	backlogMax           int
	queuedFrac           float64
	generatorLimited     bool
	n                    int
	achievedRate         float64
}

// windowed returns the median over windows of n consecutive values
// of each window's q-quantile; a series shorter than n is one window.
func windowed(xs []float64, n int, q float64) float64 {
	var qs []float64
	for lo := 0; lo == 0 || lo+n <= len(xs); lo += n {
		qs = append(qs, quantile(append([]float64(nil), xs[lo:min(lo+n, len(xs))]...), q))
	}
	return median(qs)
}

// generatorLateLimit marks a phase as generator-bound: when the median
// request that found a connection free still left this late, the
// generator itself could not keep the schedule.
const generatorLateLimit = 100.0 // µs

func (r openResult) stats() openStats {
	lat := make([]float64, 0, len(r.samples))
	var late []float64
	st := openStats{n: len(r.samples)}
	queued := 0
	for _, s := range r.samples {
		v := float64(s.lat) / 1e3
		if !s.ok {
			v = math.Inf(1)
		}
		lat = append(lat, v)
		if s.idle {
			late = append(late, float64(s.late)/1e3)
		} else {
			queued++
		}
		st.backlogMax = max(st.backlogMax, s.backlog)
	}
	st.p50, st.p99 = windowed(lat, 250, 0.5), windowed(lat, 1000, 0.99)
	st.pooledP50, st.pooledP99 = quantile(lat, 0.5), quantile(lat, 0.99)
	st.lateP50, st.lateP99 = quantile(late, 0.5), quantile(late, 0.99)
	if st.n > 0 {
		st.queuedFrac = float64(queued) / float64(st.n)
	}
	st.generatorLimited = st.lateP50 > generatorLateLimit
	if r.elapsed > 0 {
		st.achievedRate = float64(st.n) / r.elapsed.Seconds()
	}
	return st
}

// goodWindow is the length of one closed-loop goodput window.
const goodWindow = 200 * time.Millisecond

// closedLoop runs one closed-loop client per connection for d, each
// drawing from its own stream. It returns the correct 2xx answers per
// second of each goodWindow window, alongside the tally.
func closedLoop(ctx context.Context, cs []*conn, streams []*stream, base, key string, d time.Duration) ([]float64, tally) {
	tallies := make([]tally, len(cs))
	nwin := max(1, int(d/goodWindow))
	okPerWindow := make([][]int, len(cs))
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := streams[ci]
			okPerWindow[ci] = make([]int, nwin)
			for ctx.Err() == nil {
				r := s.next()
				_, ok := c.predict(ctx, base, key, &r, false, &tallies[ci])
				w := int(time.Since(start) / goodWindow)
				if w >= nwin {
					return
				}
				if ok {
					okPerWindow[ci][w]++
				}
			}
		}()
	}
	wg.Wait()
	var t tally
	for _, x := range tallies {
		t.add(x)
	}
	rates := make([]float64, nwin)
	for w := range rates {
		for ci := range cs {
			rates[w] += float64(okPerWindow[ci][w])
		}
		rates[w] /= goodWindow.Seconds()
	}
	return rates, t
}

// batchSize is the worksheet count of one /v1/predict/batch request.
const batchSize = 256

// exploreRequest is the grid of the module's exploreBenchGrid: 48
// clocks x 34 throughputs x 8 alphas x 4 block sizes x 5 device counts
// x 2 bufferings = 522,240 candidates, top 10 plus the frontier.
func exploreRequest() api.ExploreRequest {
	req := api.ExploreRequest{
		Worksheet:  worksheet.DocFromParams(paper.PDF1DParams()),
		BlockSizes: []int64{256, 512, 1024, 2048},
		Devices:    []int{1, 2, 4, 8, 16},
		Topology:   "shared",
		TopK:       10,
		Frontier:   true,
	}
	for i := 0; i < 48; i++ {
		req.ClocksMHz = append(req.ClocksMHz, 50+float64(i)*5)
	}
	for i := 0; i < 34; i++ {
		req.ThroughputProcs = append(req.ThroughputProcs, 1+float64(i))
	}
	for i := 0; i < 8; i++ {
		req.Alphas = append(req.Alphas, 0.05+0.11*float64(i))
	}
	return req
}

// exploreRef is the in-process reference answer to exploreRequest.
type exploreRef struct {
	req         api.ExploreRequest
	grid        explore.Grid
	opts        explore.Options
	size        uint64
	res         explore.Result
	top, front  []byte // json.Marshal of the wire candidates
	body, dbody []byte // /v1/explore and /v1/explore/distributed bodies
}

func newExploreRef(workers []string) (*exploreRef, error) {
	req := exploreRequest()
	g, err := req.Grid()
	if err != nil {
		return nil, err
	}
	opts, err := req.Options(0)
	if err != nil {
		return nil, err
	}
	res, err := explore.Run(g, opts)
	if err != nil {
		return nil, err
	}
	wire := api.ExploreResponseFromCore(res, true)
	ref := &exploreRef{req: req, grid: g, opts: opts, size: g.Size(), res: res}
	if ref.top, err = json.Marshal(wire.Top); err != nil {
		return nil, err
	}
	if ref.front, err = json.Marshal(wire.Frontier); err != nil {
		return nil, err
	}
	if ref.body, err = json.Marshal(req); err != nil {
		return nil, err
	}
	// One shard in flight per worker: the coordinator's own explore
	// request already holds one of a node's two default explore slots.
	ref.dbody, err = json.Marshal(api.DistributedExploreRequest{Explore: req, Workers: workers, MaxInflight: 1})
	return ref, err
}

// exploreReply is the part of an explore answer that must equal the
// reference; elapsed time and rates legitimately differ.
type exploreReply struct {
	Evaluated uint64            `json:"evaluated"`
	Feasible  uint64            `json:"feasible"`
	Top       json.RawMessage   `json:"top"`
	Frontier  json.RawMessage   `json:"frontier"`
	Cluster   *api.ClusterStats `json:"cluster"`
}

func (ref *exploreRef) check(body []byte) (exploreReply, bool) {
	var rep exploreReply
	if json.Unmarshal(body, &rep) != nil {
		return rep, false
	}
	return rep, rep.Evaluated == ref.res.Evaluated && rep.Feasible == ref.res.Feasible &&
		bytes.Equal(rep.Top, ref.top) && bytes.Equal(rep.Frontier, ref.front)
}

// batchStream is the seed's stream of batch worksheets: compact,
// single-device, drawn like the interactive stream.
func batchStream(spec streamSpec, seed int64) *stream {
	s := newStream(spec, seed, 200)
	s.spec.multiFrac, s.spec.altFrac = 0, 0
	return s
}

// batchBody draws batchSize single-device worksheets and returns the
// request body and its reference answer from core.PredictBatch.
func batchBody(s *stream) ([]byte, []byte, []core.Parameters, error) {
	body := []byte{'['}
	ps := make([]core.Parameters, batchSize)
	for i := range ps {
		r := s.next()
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, r.body...)
		p, err := worksheet.DecodeJSON(bytes.NewReader(r.body))
		if err != nil {
			return nil, nil, nil, err
		}
		ps[i] = p
	}
	body = append(body, ']')
	out := make([]core.Prediction, len(ps))
	if err := core.PredictBatch(ps, out); err != nil {
		return nil, nil, nil, err
	}
	wire := make([]api.Prediction, len(out))
	for i := range out {
		wire[i] = api.PredictionFromCore(out[i])
	}
	want, err := json.Marshal(wire)
	if err != nil {
		return nil, nil, nil, err
	}
	return body, append(want, '\n'), ps, nil
}

// bulkResult is a bulk closed loop: the seconds each measured
// operation took and the distributed runs' fleet statistics.
type bulkResult struct {
	batchS, exploreS, distS       []float64
	shards, retried, redispatched []float64
	counts                        map[string]int64
	tally                         tally
}

// append adds o's operations to b.
func (b *bulkResult) append(o bulkResult) {
	b.batchS = append(b.batchS, o.batchS...)
	b.exploreS = append(b.exploreS, o.exploreS...)
	b.distS = append(b.distS, o.distS...)
	b.shards = append(b.shards, o.shards...)
	b.retried = append(b.retried, o.retried...)
	b.redispatched = append(b.redispatched, o.redispatched...)
	b.tally.add(o.tally)
	for k, v := range o.counts {
		b.counts[k] += v
	}
}

// The bulk loop repeats a cycle of batchReps batches, exploreReps
// explores and one distributed explore. The repeats give the three
// rates similar shares of the loop's time (on a 2-vCPU host a batch
// takes 1-3ms, an explore 25-70ms and a distributed explore 100-700ms),
// so that no rate rests on a small part of the run.
const batchReps, exploreReps = 32, 4

// bulkLoop is the bulk closed loop on one connection, drawing batches
// from s. Each run resumes the cycle where the last one stopped.
type bulkLoop struct {
	c         *conn
	s         *stream
	base, key string
	ref       *exploreRef
	pos       int // position in the cycle of the next operation
}

// run sends operations until the deadline. Operations that start
// before from are a warm-up: checked and counted, but left out of the
// rates. At least one operation starts after from. Every answer is
// checked against the in-process reference.
func (l *bulkLoop) run(ctx context.Context, from, deadline time.Time) (bulkResult, error) {
	res := bulkResult{counts: map[string]int64{}}
	for measured := false; ctx.Err() == nil && (!measured || time.Now().Before(deadline)); {
		measured = !time.Now().Before(from)
		pos := l.pos
		l.pos = (l.pos + 1) % (batchReps + exploreReps + 1)
		if pos < batchReps {
			body, want, _, err := batchBody(l.s)
			if err != nil {
				return res, err
			}
			t0 := time.Now()
			ex, err := l.c.post(ctx, l.base+"/v1/predict/batch", body, l.key, false)
			d := time.Since(t0)
			res.counts["predict/batch"]++
			if res.tally.record(err, ex.status, err == nil && bytes.Equal(ex.body, want)) && measured {
				res.batchS = append(res.batchS, d.Seconds())
			}
			continue
		}
		dist := pos == batchReps+exploreReps
		path, b := "/v1/explore", l.ref.body
		if dist {
			path, b = "/v1/explore/distributed", l.ref.dbody
		}
		t0 := time.Now()
		ex, err := l.c.post(ctx, l.base+path, b, l.key, false)
		d := time.Since(t0)
		res.counts[strings.TrimPrefix(path, "/v1/")]++
		var rep exploreReply
		correct := false
		if err == nil && ex.status == http.StatusOK {
			rep, correct = l.ref.check(ex.body)
			correct = correct && (!dist || rep.Cluster != nil)
		}
		if !res.tally.record(err, ex.status, correct) || !measured {
			continue
		}
		if dist {
			res.distS = append(res.distS, d.Seconds())
			res.shards = append(res.shards, float64(rep.Cluster.Shards))
			res.retried = append(res.retried, float64(rep.Cluster.Retried))
			res.redispatched = append(res.redispatched, float64(rep.Cluster.Redispatched))
		} else {
			res.exploreS = append(res.exploreS, d.Seconds())
		}
	}
	return res, nil
}
