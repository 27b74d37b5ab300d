package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"github.com/chrec/rat/client"
	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/cluster"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/explore"
	"github.com/chrec/rat/internal/server"
	"github.com/chrec/rat/internal/tenant"
	"github.com/chrec/rat/internal/wire"
	"github.com/chrec/rat/internal/worksheet"
)

// runTraced is the traced run. Its open loop alternates untraced
// blocks (the measured request time of the budget) with traced ones
// (X-Rat-Trace with X-Rat-Stages, plus httptrace on the client side);
// their p50 difference is the tracing overhead. ratd's /metrics and
// /v1/status are read around the phases. Then a direct
// cluster.Coordinator.Run against the live fleet and, with ratd
// stopped, direct calls into each layer on the same inputs.
func (e *env) runTraced(ctx context.Context, ref *exploreRef) error {
	meta := connClient()
	defer meta.CloseIdleConnections()
	m0, s0, err := e.scrape(ctx, meta)
	if err != nil {
		return err
	}
	m, err := e.measure(ctx, ref)
	if err != nil {
		return err
	}
	untr, tr, bulk := m.open, m.traced, m.bulk
	m1, s1, err := e.scrape(ctx, meta)
	if err != nil {
		return err
	}
	coordMs, err := e.coordinatorRun(ctx, ref)
	if err != nil {
		return err
	}
	m2, s2, err := e.scrape(ctx, meta)
	if err != nil {
		return err
	}
	if err := e.stopFleet(); err != nil {
		return err
	}

	// Generator, shares and counts.
	ust, tst := untr.stats(), tr.stats()
	e.set("predict_p99_us", ust.p99)
	e.set("gen.late_p50_us", ust.lateP50)
	e.set("gen.late_p99_us", ust.lateP99)
	e.set("gen.backlog_max", float64(ust.backlogMax))
	e.set("gen.queued_frac", ust.queuedFrac)
	e.set("gen.bottleneck", b2f(ust.generatorLimited || tst.generatorLimited))
	sh := e.shares(m)
	e.set("share.raw_hit", sh.RawHit)
	e.set("share.canonical_hit", sh.CanonHit)
	e.set("share.miss", sh.Miss)
	e.set("share.multi", sh.Multi)
	e.set("count.predict", float64(e.counts["predict"]))
	e.set("count.predict_batch", float64(e.counts["predict/batch"]))
	e.set("count.explore", float64(e.counts["explore"]))
	e.set("count.explore_distributed", float64(e.counts["explore/distributed"]))
	e.set("ops.failed_frac", float64(e.tally.Failed)/float64(e.tally.Attempted))
	e.set("host.nproc", float64(runtime.NumCPU()))
	e.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)))

	// Server counters over the open loop.
	predicts := float64(len(m.sent))
	hits := float64(s1.Cache.Hits - s0.Cache.Hits)
	misses := float64(s1.Cache.Misses - s0.Cache.Misses)
	e.set("server.cache_hit_ratio", hits/(hits+misses))
	e.set("server.cache_evictions_per_req", m1.delta(m0, "server.cache_evictions")/predicts)
	batchMean := 0.0 // no request reached the batcher
	if n := m1.delta(m0, "server.batch_size.count"); n > 0 {
		batchMean = m1.delta(m0, "server.batch_size.sum") / n
	}
	e.set("server.batch_size_mean", batchMean)
	e.set("server.inflight_peak.predict", m2["server.inflight_peak.predict"])
	e.set("server.rejected", m2.delta(m0, "server.rejected.predict")+m2.delta(m0, "server.rejected.batch")+
		m2.delta(m0, "server.rejected.explore"))
	level := max(s0.BrownoutLevel, s1.BrownoutLevel, s2.BrownoutLevel)
	if m2.delta(m0, "rat_brownout_raised_total") > 0 {
		level = max(level, 1)
	}
	e.set("server.brownout_level_max", float64(level))
	var trej int64
	for _, t := range s2.Tenants {
		trej += t.RejectedQuota + t.RejectedConcurrency
	}
	e.set("tenant.rejected", float64(trej))
	e.set("ratd.cpu_us_per_req", m.cpuSeconds*1e6/float64(m.cpuReqs))

	// Explore and cluster over HTTP.
	e.set("batch_ws_per_s", batchSize/median(bulk.batchS))
	e.set("explore_cands_per_s", throughput(float64(ref.size), bulk.exploreS))
	e.set("explore_dist_cands_per_s", throughput(float64(ref.size), bulk.distS))
	e.set("cluster.shards", median(bulk.shards))
	e.set("cluster.retried", sum(bulk.retried))
	e.set("cluster.redispatched", sum(bulk.redispatched))
	e.set("cluster.shard_latency_ms",
		1e3*m2.delta(m0, "cluster.shard_latency.total_s")/m2.delta(m0, "cluster.shard_latency.count"))
	e.set("cluster.coordinator_run_ms", coordMs)
	exploreMs, distMs := 1e3*mean(bulk.exploreS), 1e3*mean(bulk.distS)
	e.set("cluster.overhead_frac", (distMs-exploreMs)/distMs)

	// Client side of the traced requests.
	var build, write, ttfb, read, reused []float64
	var stages [len(stageNames)][]float64 // every traced request, zeros included
	var passed [len(stageNames)][]float64 // requests that went through the stage
	for _, s := range tr.samples {
		if !s.ok || s.ex.gotConn.IsZero() {
			continue
		}
		build = append(build, us(s.ex.gotConn.Sub(s.sent)))
		write = append(write, us(s.ex.wrote.Sub(s.ex.gotConn)))
		ttfb = append(ttfb, us(s.ex.first.Sub(s.ex.wrote)))
		read = append(read, us(s.ex.done.Sub(s.ex.first)))
		reused = append(reused, b2f(s.ex.reused))
		for i, d := range s.ex.stages {
			stages[i] = append(stages[i], us(d))
			if d > 0 {
				passed[i] = append(passed[i], us(d))
			}
		}
	}
	e.set("client.conn_reuse_frac", mean(reused))
	e.set("http.write_us", median(write))
	e.set("http.ttfb_us", median(ttfb))
	e.set("http.read_us", median(read))
	for i, name := range stageNames {
		v := median(passed[i])
		if len(passed[i]) == 0 {
			v = 0 // the workload never reaches this stage
		}
		e.set("server.stage."+name+"_us", v)
	}

	// Direct calls into each layer, with ratd stopped.
	hit, miss, all := inMemoryHandler(warmSet(e.w.spec, e.seed), untr.reqs)
	e.set("server.handler_hit_us", median(hit))
	e.set("server.handler_miss_us", median(miss))
	handler := median(all)
	e.set("http.transport_us", median(ttfb)-handler)
	inprocMs, err := e.directLayers(untr.reqs, ref)
	if err != nil {
		return err
	}
	e.set("explore.http_overhead_frac", (exploreMs-inprocMs)/exploreMs)

	// The RAT budget: layer self times against the measured p50.
	rows := []budgetRow{
		{"generator lateness", "gen.late_p50_us", ust.lateP50},
		{"client request build, connection", "httptrace GotConn", median(build)},
		{"client write", "http.write_us", median(write)},
		{"transport (ttfb - handler)", "http.transport_us", median(ttfb) - handler},
	}
	stageSum := 0.0
	for i := range stageNames {
		stageSum += median(stages[i])
	}
	rows = append(rows, budgetRow{"server: body read, routing, middleware", "handler - stages", handler - stageSum})
	for i, name := range stageNames {
		rows = append(rows, budgetRow{"server stage " + name, "X-Rat-Stages " + name, median(stages[i])})
	}
	rows = append(rows, budgetRow{"client read", "http.read_us", median(read)})
	predicted := 0.0
	for _, r := range rows {
		predicted += r.us
	}
	e.set("budget.predicted_us", predicted)
	e.set("budget.measured_p50_us", ust.p50)
	e.set("trace.overhead_us", tst.p50-ust.p50)
	e.printBudget(rows, predicted, ust.p50, tst.p50, len(write))
	e.printCounts()
	e.printf("server cache_hit_ratio over the open loop: %.4f\n", hits/(hits+misses))
	return nil
}

// shares replays the warm set and the open loop's requests through the
// cache model and prints the workload's property shares.
func (e *env) shares(m *measurement) shares {
	model := newCacheModel(defaultCacheSize)
	for _, w := range warmSet(e.w.spec, e.seed) {
		model.observe(&w)
	}
	model.rawHits, model.canonHits, model.misses, model.multi = 0, 0, 0, 0
	for i := range m.sent {
		model.observe(&m.sent[i])
	}
	sh := model.shares()
	e.printf("shares of the %d open-loop requests (cache model): raw_hit=%.4f canonical_hit=%.4f miss=%.4f multi=%.4f\n",
		len(m.sent), sh.RawHit, sh.CanonHit, sh.Miss, sh.Multi)
	return sh
}

type budgetRow struct {
	layer, source string
	us            float64
}

// printBudget prints the traced run's budget in the layout of the
// paper's Tables 3, 6 and 9: predicted (the sum of per-layer costs)
// beside measured.
func (e *env) printBudget(rows []budgetRow, predicted, measured, traced float64, n int) {
	e.printf("RAT budget, %s: per-layer medians over %d traced requests (us)\n", e.w.name, n)
	e.printf("  %-40s %-22s %10s %7s\n", "layer", "source", "self_us", "share")
	for _, r := range rows {
		e.printf("  %-40s %-22s %10.1f %6.1f%%\n", r.layer, r.source, r.us, 100*r.us/predicted)
	}
	e.printf("  %-63s %10.1f\n", "predicted request time (sum of layers)", predicted)
	e.printf("  %-63s %10.1f  (predicted/measured %.2f)\n", "measured untraced predict_p50_us", measured, predicted/measured)
	e.printf("  %-63s %10.1f  (tracing overhead %+.1f us)\n", "measured traced p50", traced, traced-measured)
}

func (e *env) scrape(ctx context.Context, hc *http.Client) (metricsText, api.Status, error) {
	m, err := scrapeMetrics(ctx, hc, e.urls[0])
	if err != nil {
		return nil, api.Status{}, err
	}
	st, err := scrapeStatus(ctx, hc, e.urls[0])
	return m, st, err
}

// fleetCPU sums the CPU seconds the fleet has used.
func (e *env) fleetCPU() (float64, error) {
	total := 0.0
	for _, r := range e.fleet {
		s, err := cpuSeconds(r.pid())
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// coordinatorRun times cluster.Coordinator.Run in the benchmark process
// against the live fleet, and checks its merge against the reference.
func (e *env) coordinatorRun(ctx context.Context, ref *exploreRef) (float64, error) {
	workers := make([]cluster.Remote, len(e.urls))
	for i, u := range e.urls {
		var opts []client.Option
		if k := e.key(true); k != "" {
			opts = append(opts, client.WithAPIKey(k))
		}
		workers[i] = cluster.Remote{Name: u, W: client.New(u, opts...)}
	}
	coord, err := cluster.New(cluster.Config{Workers: workers, MaxInflight: 1})
	if err != nil {
		return 0, err
	}
	var ms []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		res, _, err := coord.Run(ctx, ref.req)
		d := time.Since(t0)
		correct := err == nil && res.Evaluated == ref.res.Evaluated && sameCandidates(res.Top, ref.res.Top) &&
			sameCandidates(res.Frontier, ref.res.Frontier)
		if e.tally.record(err, http.StatusOK, correct) {
			ms = append(ms, float64(d)/1e6)
		}
	}
	return median(ms), nil
}

func sameCandidates(a, b []explore.Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// inMemoryHandler serves the warm set and then reqs through an
// in-process server.New(...).Handler() with the default configuration,
// and times each ServeHTTP. A request is a hit when the server's hit
// counter moved. Requests run one at a time, so a batcher miss waits
// the full linger. At most maxInMemory of reqs are replayed.
func inMemoryHandler(warm, reqs []request) (hit, miss, all []float64) {
	const maxInMemory = 400
	srv := server.New(server.Config{})
	h := srv.Handler()
	hits := srv.Metrics().Counter("server.cache_hits")
	serve := func(r *request) (float64, bool) {
		before := hits.Value()
		req := httptest.NewRequest(http.MethodPost, r.path(), bytes.NewReader(r.body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		return us(time.Since(t0)), hits.Value() > before
	}
	for i := range warm {
		if d, h := serve(&warm[i]); !h {
			miss = append(miss, d)
		}
	}
	for i := range reqs[:min(len(reqs), maxInMemory)] {
		d, h := serve(&reqs[i])
		all = append(all, d)
		if h {
			hit = append(hit, d)
		} else {
			miss = append(miss, d)
		}
	}
	return hit, miss, all
}

// directLayers times each layer's public functions on the run's own
// inputs: the open loop's request bodies, a bulk batch and the
// explore grid. It returns the in-process explore.Run time in ms.
func (e *env) directLayers(reqs []request, ref *exploreRef) (float64, error) {
	intern := func(b []byte) string { return string(b) }
	var bodies [][]byte
	var ps []core.Parameters
	var multi []core.MultiConfig
	var mps []core.Parameters
	var respBytes float64
	reqBytes := 0.0
	for i := range reqs {
		r := &reqs[i]
		p, err := worksheet.DecodeJSON(bytes.NewReader(r.body))
		if err != nil {
			return 0, err
		}
		bodies = append(bodies, r.body)
		reqBytes += float64(len(r.body))
		want, err := expectedPredict(r)
		if err != nil {
			return 0, err
		}
		respBytes += float64(len(want))
		if r.multi {
			cfg, err := multiConfig(r.query)
			if err != nil {
				return 0, err
			}
			mps, multi = append(mps, p), append(multi, cfg)
		} else {
			ps = append(ps, p)
		}
	}
	if len(mps) == 0 { // a single-device stream: time the multi kernel on its worksheets
		mps = ps
		multi = make([]core.MultiConfig, len(ps))
		for i := range multi {
			multi[i] = core.MultiConfig{Devices: 4, Topology: core.SharedChannel}
		}
	}
	e.set("wire.req_bytes", reqBytes/float64(len(reqs)))
	e.set("wire.resp_bytes", respBytes/float64(len(reqs)))

	// failed keeps the first error of the timed calls; their results go
	// to sink so the compiler cannot drop the calls.
	var failed error
	check := func(err error) {
		if failed == nil {
			failed = err
		}
	}
	e.set("wire.decode_ns", nsPerOp(len(bodies), func(i int) {
		var err error
		sink.params, err = wire.DecodeWorksheetIntern(bodies[i], intern)
		check(err)
	}))
	preds := make([]api.Prediction, len(ps))
	for i, p := range ps {
		pr, err := core.Predict(p)
		if err != nil {
			return 0, err
		}
		preds[i] = api.PredictionFromCore(pr)
	}
	buf := make([]byte, 0, 4096)
	e.set("wire.encode_ns", nsPerOp(len(preds), func(i int) {
		var err error
		buf, err = wire.AppendPrediction(buf[:0], &preds[i])
		check(err)
	}))
	e.set("core.predict_ns", nsPerOp(len(ps), func(i int) {
		var err error
		sink.pred, err = core.Predict(ps[i])
		check(err)
	}))
	e.set("core.predict_multi_ns", nsPerOp(len(mps), func(i int) {
		var err error
		sink.multi, err = core.PredictMulti(mps[i], multi[i])
		check(err)
	}))
	_, _, batch, err := batchBody(batchStream(e.w.spec, e.seed))
	if err != nil {
		return 0, err
	}
	out := make([]core.Prediction, len(batch))
	e.set("core.predict_batch_ns_per_ws", nsPerOp(1, func(int) { check(core.PredictBatch(batch, out)) })/float64(len(batch)))
	// The timing loop takes far more tokens than the tenants' burst at
	// one instant; a burst it cannot drain keeps every Take admitted,
	// as every Take of the bulk-mix tenants is.
	bucket := tenant.NewBucket(tenantRate, 1e12)
	now := time.Now()
	e.set("tenant.take_ns", nsPerOp(1, func(int) { sink.took, _ = bucket.Take(now, 1) }))
	if failed != nil {
		return 0, fmt.Errorf("direct layer call: %w", failed)
	}

	// Explore in process, then the distributed merge on the union of
	// the shard top-K and frontier sets the coordinator would receive.
	var runMs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := explore.Run(ref.grid, ref.opts); err != nil {
			return 0, err
		}
		runMs = append(runMs, float64(time.Since(t0))/1e6)
	}
	inproc := median(runMs)
	e.set("explore.run_cands_per_s", float64(ref.size)/(inproc/1e3))
	return inproc, e.mergeLayers(ref)
}

// mergeLayers replays the distributed merge: it evaluates each shard
// the coordinator would cut for this fleet size, unions the shard
// top-K and frontier indices, and times EvalIndices, SelectTop and
// Frontier on that union.
func (e *env) mergeLayers(ref *exploreRef) error {
	span := ref.size
	size := span / (8 * uint64(e.w.procs)) // cluster.Config's default shard size
	size = max(min(size, 1<<20), 1)
	union := map[uint64]bool{}
	for lo := uint64(0); lo < span; lo += size {
		opts := ref.opts
		opts.IndexLo, opts.IndexHi = lo, min(lo+size, span)
		res, err := explore.Run(ref.grid, opts)
		if err != nil {
			return err
		}
		for _, c := range append(res.Top, res.Frontier...) {
			union[c.Index] = true
		}
	}
	idx := make([]uint64, 0, len(union))
	for i := range union {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	var cands []explore.Candidate
	var err error
	evalNs := nsPerOp(1, func(int) { cands, err = explore.EvalIndices(ref.grid, ref.opts.Constraints, idx) })
	if err != nil {
		return err
	}
	topNs := nsPerOp(1, func(int) { explore.SelectTop(ref.opts.Objective, ref.opts.TopK, cands) })
	frontNs := nsPerOp(1, func(int) { explore.Frontier(cands) })
	e.set("explore.eval_indices_ns", evalNs/float64(len(idx)))
	e.set("explore.select_top_ns", topNs)
	e.set("explore.frontier_ns", frontNs)
	e.set("cluster.merge_ms", (evalNs+topNs+frontNs)/1e6)
	return nil
}

// sink receives the results of timed calls.
var sink struct {
	params core.Parameters
	pred   core.Prediction
	multi  core.MultiPrediction
	took   bool
}

// nsPerOp times fn over n inputs in rounds of at least 20ms and
// returns the median round's nanoseconds per call.
func nsPerOp(n int, fn func(i int)) float64 {
	var rounds []float64
	for r := 0; r < 5; r++ {
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < 20*time.Millisecond {
			for i := 0; i < n; i++ {
				fn(i)
			}
			calls += n
		}
		rounds = append(rounds, float64(time.Since(t0))/float64(calls))
	}
	return median(rounds)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }
