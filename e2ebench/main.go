// Command e2ebench is the repository's end-to-end benchmark. It starts
// ratd as its own process (or a two-process fleet), drives it over
// loopback HTTP from one generator process with seeded request
// streams, checks every answer against the in-process library, and
// prints one JSON result line. With -trace 1 it instead makes a traced
// run of the same streams and reports per-layer metrics plus a
// RAT-style budget: each layer's cost beside the measured request time.
//
// Usage (from the repository root; e2ebench/run.sh builds both
// binaries first):
//
//	e2ebench -ratd path/to/ratd -workload predict-tail -seed 1 -seconds 45 -trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workload is one traffic mix. Each is chosen for the layers it
// exercises and the ones it bypasses; why says which.
type workload struct {
	name string
	why  string
	// procs is the ratd fleet size; tenants starts it with -tenants.
	procs   int
	tenants bool
	// spec is the interactive predict stream; rate its open-loop rate.
	spec streamSpec
	rate float64
	// mixed runs the bulk loop beside the interactive open loop, on
	// one connection each, instead of in a phase of its own.
	mixed bool
}

// workloads are the benchmark's workloads, as BENCHMARK.json lists
// them.
var workloads = []workload{
	{
		name: "predict-tail",
		why: "Zipf over 10^6 worksheets, ~85% cache misses, one in five multi-device: " +
			"decode, canonical key, cache fill and eviction, batcher linger, kernel and encode",
		procs: 1, spec: tailSpec, rate: 300,
	},
	{
		name: "bulk-mix",
		why: "two tenanted ratd processes: closed-loop batch, explore and distributed explore beside low-rate " +
			"open-loop interactive predicts, so bulk work that costs interactive latency shows",
		procs: 2, tenants: true, spec: tailSpec, rate: 50, mixed: true,
	},
}

// extraWorkloads run by name like the others but are not in
// BENCHMARK.json. predict-hot's requests take ~0.1ms of CPU each, so
// its p50 and goodput follow the CPU speed a shared 2-vCPU virtual
// machine gets, which swings twofold over minutes (goodput read
// 8.0k-20.6k/s over ten consecutive runs of one build): no bound a gate
// could hold. predict-tail's and bulk-mix's traced runs measure the
// same hit-path layers.
var extraWorkloads = []workload{
	{
		name: "predict-hot",
		why: "256 Zipf-drawn worksheets that all fit the cache: nearly every request is a raw-alias hit, so socket, HTTP, " +
			"body read and cache only; the no-change control for decode, kernel and encode work",
		procs: 1, spec: hotSpec, rate: 300,
	},
}

// allWorkloads returns every workload a run can name.
func allWorkloads() []workload {
	return append(append([]workload(nil), workloads...), extraWorkloads...)
}

// Tenants of the bulk-mix fleet. Both quotas (tenantRate tokens per
// second, as tenantsJSON writes them) sit far above the offered load,
// so no request is refused for quota.
const (
	interactiveKey = "bench-interactive-key"
	bulkKey        = "bench-bulk-key"
	tenantRate     = 1e6
	tenantsJSON    = `{"tenants":[` +
		`{"name":"interactive","key":"` + interactiveKey + `","rate_per_sec":1e6,"burst":1e6},` +
		`{"name":"bulk","key":"` + bulkKey + `","rate_per_sec":1e6,"burst":1e6}]}`
)

// setupReps is how many times a run sets the fleet up; setup_s is the
// median.
const setupReps = 5

// warmRanks is the warm set primed at setup: the stream's most popular
// worksheets, in the compact single-device form.
const warmRanks = 256

func lookupWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: predict-tail, bulk-mix or predict-hot")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 45, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 makes a traced run reporting per-layer metrics")
	bin := fs.String("ratd", "", "ratd binary built from the tree under test")
	dir := fs.String("dir", ".bench_build", "directory for run files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *bin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: e2ebench -ratd BIN -workload predict-tail|bulk-mix|predict-hot -seed N -seconds S -trace 0|1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e := &env{
		w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, bin: *bin,
		counts: map[string]int64{}, metrics: map[string]metric{}, out: stdout,
	}
	var err error
	if e.dir, err = os.MkdirTemp(*dir, "run-"); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(e.dir)
	err = e.run(ctx)
	if err == nil && len(e.undefined) > 0 {
		err = fmt.Errorf("no measurement for %s", strings.Join(e.undefined, ", "))
	}
	if serr := e.stopFleet(); err == nil && serr != nil {
		err = fmt.Errorf("stopping ratd: %w", serr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	res := result{
		Correct:   e.tally.Wrong == 0,
		Attempted: e.tally.Attempted,
		Failed:    e.tally.Failed,
		Metrics:   e.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is one benchmark run.
type env struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	bin     string
	dir     string
	out     io.Writer

	fleet []*ratd
	urls  []string

	tally   tally
	counts  map[string]int64 // generator requests per endpoint
	metrics map[string]metric
	// undefined lists metrics a run could not measure, e.g. a rate
	// whose every operation failed.
	undefined []string
}

func (e *env) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		e.undefined = append(e.undefined, name)
		return
	}
	e.metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func (e *env) printf(format string, args ...any) { fmt.Fprintf(e.out, format, args...) }

// key returns the tenant key for interactive or bulk requests, or ""
// on an untenanted fleet.
func (e *env) key(bulk bool) string {
	switch {
	case !e.w.tenants:
		return ""
	case bulk:
		return bulkKey
	}
	return interactiveKey
}

func (e *env) stopFleet() error {
	var errs []error
	for _, r := range e.fleet {
		if err := r.stop(); err != nil {
			errs = append(errs, err)
		}
	}
	e.fleet, e.urls = nil, nil
	return errors.Join(errs...)
}

// startFleet spawns the workload's ratd processes and waits for each
// /readyz.
func (e *env) startFleet() error {
	var extra []string
	if e.w.tenants {
		path := filepath.Join(e.dir, "tenants.json")
		if err := os.WriteFile(path, []byte(tenantsJSON), 0o644); err != nil {
			return err
		}
		extra = []string{"-tenants", path}
	}
	for i := 0; i < e.w.procs; i++ {
		r, err := startRatd(e.bin, extra...)
		if err != nil {
			return err
		}
		e.fleet = append(e.fleet, r)
		e.urls = append(e.urls, r.url)
	}
	hc := connClient()
	defer hc.CloseIdleConnections()
	for _, r := range e.fleet {
		if err := r.waitReady(hc); err != nil {
			return err
		}
	}
	return nil
}

// warmSet is the stream's warm set: its warmRanks most popular
// worksheets.
func warmSet(spec streamSpec, seed int64) []request {
	a, b := affine(seed)
	n := min(uint64(warmRanks), spec.ranks)
	out := make([]request, n)
	for rank := range out {
		v := (a*uint64(rank) + b) % variantSpace
		out[rank] = request{body: worksheetBody(variantParams(v), false)}
	}
	return out
}

// setup starts the fleet and primes the warm set setupReps times,
// keeping the last fleet, and returns the median set-up time.
func (e *env) setup(ctx context.Context) (float64, error) {
	warm := warmSet(e.w.spec, e.seed)
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		if err := e.stopFleet(); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := e.startFleet(); err != nil {
			return 0, err
		}
		cs := newConns(runtime.NumCPU())
		var wg sync.WaitGroup
		tallies := make([]tally, len(cs))
		for ci, c := range cs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := ci; i < len(warm); i += len(cs) {
					c.predict(ctx, e.urls[0], e.key(false), &warm[i], false, &tallies[ci])
				}
			}()
		}
		wg.Wait()
		times = append(times, time.Since(t0).Seconds())
		closeConns(cs)
		for _, t := range tallies {
			e.tally.add(t)
			e.counts["predict"] += t.Attempted
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

func (e *env) run(ctx context.Context) error {
	e.printf("host: %s\n", hostFingerprint())
	e.printf("workload %s seed=%d seconds=%g trace=%v: %s\n", e.w.name, e.seed, e.seconds, e.traced, e.w.why)
	setupS, err := e.setup(ctx)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	ref, err := newExploreRef(e.urls)
	if err != nil {
		return fmt.Errorf("explore reference: %w", err)
	}
	if e.traced {
		return e.runTraced(ctx, ref)
	}
	e.set("setup_s", setupS)
	m, err := e.measure(ctx, ref)
	if err != nil {
		return err
	}
	e.set("predict_p50_us", m.open.stats().p50)
	e.set("predict_goodput_rps", mean(m.good))
	e.set("ops_ok_frac", float64(e.tally.OK)/float64(e.tally.Attempted))
	rss := 0.0
	for _, r := range e.fleet {
		mb, err := peakRSSMB(r.pid())
		if err != nil {
			return err
		}
		rss += mb
	}
	e.set("peak_rss_mb", rss)
	e.shares(m)
	e.printCounts()
	return nil
}

// Warm-ups, checked and counted but left out of the metrics: the open
// loop's first openWarm of requests, then a loadWarm stretch of the
// loaded phases before the first round. On a shared virtual machine
// the host takes seconds to give a newly busy guest its full speed.
const (
	openWarm = 1500 * time.Millisecond
	loadWarm = time.Second
)

// rampWarm is the unmeasured closed loop that starts the loaded part
// of each round: after the light open loop the host takes a few
// hundred milliseconds to give the guest its full speed again.
const rampWarm = 300 * time.Millisecond

// roundLen is the length of one round. A run's measured time is cut
// into rounds, and each round runs every phase once, so each metric
// samples the whole run: the speed a shared host gives a guest drifts
// over seconds, and a phase run as one stretch would sample a fraction
// of that drift.
const roundLen = 3500 * time.Millisecond

// phaseShares returns the shares of a run's measured time that go to
// the open loop, to closed-loop goodput and to the bulk loop. The open
// loop's p50 needs fewer seconds than the CPU-bound rates to settle.
func phaseShares(w workload, traced bool) (openF, goodF, bulkF float64) {
	openF, goodF, bulkF = 0.3, 0.25, 0.45
	if w.mixed {
		openF, goodF, bulkF = 0.75, 0.25, 0
	}
	if traced {
		openF, goodF = openF+goodF, 0
	}
	return openF, goodF, bulkF
}

// openPlan returns a run's round count and its open-loop request
// counts: warm-up requests, then perRound in each round.
func openPlan(w workload, seconds float64, traced bool) (rounds, warm, perRound int) {
	openF, _, _ := phaseShares(w, traced)
	rounds = max(1, int(math.Round(seconds/roundLen.Seconds())))
	warm = int(w.rate * openWarm.Seconds())
	perRound = max(1, int(w.rate*openF*seconds/float64(rounds)))
	return rounds, warm, perRound
}

// tracedBlock is the run length of requests that alternate between
// untraced and traced in a traced run's open loop (shorter in a run
// too short for four blocks).
const tracedBlock = 300

// measurement is what a run's phases measured.
type measurement struct {
	open, traced openResult // interactive open loop, untraced and traced
	sent         []request  // every open-loop request in order, warm-up included
	good         []float64  // closed-loop goodput per window
	bulk         bulkResult
	// cpuSeconds is the fleet's CPU time during the open-loop phase,
	// and cpuReqs the requests the generator sent in it.
	cpuSeconds float64
	cpuReqs    int64
}

// measure runs the workload's phases in rounds: the interactive open
// loop (beside the bulk loop on bulk-mix), closed-loop goodput, and on
// the predict workloads a bulk phase. A traced run has no goodput and
// traces alternate blocks of tracedBlock open-loop requests.
func (e *env) measure(ctx context.Context, ref *exploreRef) (*measurement, error) {
	openF, goodF, bulkF := phaseShares(e.w, e.traced)
	rounds, warm, perRound := openPlan(e.w, e.seconds, e.traced)
	share := func(f float64) time.Duration {
		return time.Duration(f * e.seconds / float64(rounds) * float64(time.Second))
	}
	m := &measurement{bulk: bulkResult{counts: map[string]int64{}}}

	reqs := newStream(e.w.spec, e.seed, 0).take(warm + rounds*perRound)
	traced := func(int) bool { return false }
	if e.traced {
		block := max(1, min(tracedBlock, rounds*perRound/4))
		traced = func(i int) bool { return i >= warm && (i-warm)/block%2 == 1 }
	}

	// One connection per vCPU for the open loop, and for the closed
	// loops, whose first connection also carries the bulk loop. On a
	// mixed workload the bulk loop has a connection of its own beside
	// the open loop's.
	nconn := runtime.NumCPU()
	bl := &bulkLoop{s: batchStream(e.w.spec, e.seed), base: e.urls[0], key: e.key(true), ref: ref}
	if e.w.mixed {
		nconn = max(1, nconn-1)
		bcs := newConns(1)
		defer closeConns(bcs)
		bl.c = bcs[0]
	}
	ocs, lcs := newConns(nconn), newConns(runtime.NumCPU())
	defer closeConns(ocs)
	defer closeConns(lcs)
	if bl.c == nil {
		bl.c = lcs[0]
	}
	streams := make([]*stream, len(lcs))
	for i := range streams {
		streams[i] = newStream(e.w.spec, e.seed, int64(100+i))
	}

	var all openResult
	var good tally
	// openChunk sends reqs[lo:hi] on schedule, beside the bulk loop on
	// a mixed workload; measured says whether that bulk loop counts.
	openChunk := func(lo, hi int, measured bool) error {
		cpu0, err := e.fleetCPU()
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		var bulk bulkResult
		var bulkErr error
		if e.w.mixed {
			from := time.Now()
			deadline := from.Add(time.Duration(float64(hi-lo) / e.w.rate * float64(time.Second)))
			if !measured {
				from = deadline
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				bulk, bulkErr = bl.run(ctx, from, deadline)
			}()
		}
		r := openLoop(ctx, ocs, e.urls[0], e.key(false), reqs[lo:hi], e.w.rate, func(i int) bool { return traced(lo + i) })
		cpu1, err := e.fleetCPU()
		wg.Wait()
		if err != nil {
			return err
		}
		if bulkErr != nil {
			return bulkErr
		}
		all.samples = append(all.samples, r.samples...)
		all.reqs = append(all.reqs, r.reqs...)
		all.elapsed += r.elapsed
		all.tally.add(r.tally)
		e.noteBulk(bulk)
		if measured {
			m.bulk.append(bulk)
			m.cpuSeconds += cpu1 - cpu0
			m.cpuReqs += r.tally.Attempted + bulk.tally.Attempted
		}
		return nil
	}
	// loaded runs a goodput chunk of length goodD, then a bulk chunk of
	// length bulkD; measured says whether they count. A measured pair
	// starts with rampWarm of unmeasured closed loop.
	loaded := func(goodD, bulkD time.Duration, measured bool) error {
		if goodD+bulkD > 0 && measured {
			_, t := closedLoop(ctx, lcs, streams, e.urls[0], e.key(false), rampWarm)
			good.add(t)
		}
		if goodD > 0 {
			rates, t := closedLoop(ctx, lcs, streams, e.urls[0], e.key(false), goodD)
			good.add(t)
			if measured {
				m.good = append(m.good, rates...)
			}
		}
		if bulkD > 0 {
			from := time.Now()
			deadline := from.Add(bulkD)
			if !measured {
				from = deadline
			}
			bulk, err := bl.run(ctx, from, deadline)
			if err != nil {
				return err
			}
			e.noteBulk(bulk)
			if measured {
				m.bulk.append(bulk)
			}
		}
		return nil
	}

	if err := openChunk(0, warm, false); err != nil {
		return nil, err
	}
	if goodF+bulkF > 0 {
		if err := loaded(time.Duration(float64(loadWarm)*goodF/(goodF+bulkF)),
			time.Duration(float64(loadWarm)*bulkF/(goodF+bulkF)), false); err != nil {
			return nil, err
		}
	}
	for r := 0; r < rounds && ctx.Err() == nil; r++ {
		lo := warm + r*perRound
		if err := openChunk(lo, lo+perRound, true); err != nil {
			return nil, err
		}
		if err := loaded(share(goodF), share(bulkF), true); err != nil {
			return nil, err
		}
	}
	// A run too short for a whole bulk cycle still measures each kind
	// of bulk operation: at most one more cycle, one operation at a
	// time.
	for i := 0; i <= batchReps+exploreReps && (bulkF > 0 || e.w.mixed) && ctx.Err() == nil &&
		(len(m.bulk.batchS) == 0 || len(m.bulk.exploreS) == 0 || len(m.bulk.distS) == 0); i++ {
		now := time.Now()
		bulk, err := bl.run(ctx, now, now)
		if err != nil {
			return nil, err
		}
		e.noteBulk(bulk)
		m.bulk.append(bulk)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	e.tally.add(all.tally)
	e.counts["predict"] += all.tally.Attempted
	m.open, m.traced = all.split(warm)
	m.sent = all.reqs
	e.printOpen("open", m.open)
	if e.traced {
		e.printOpen("open-traced", m.traced)
	}
	e.tally.add(good)
	e.counts["predict"] += good.Attempted
	if goodF > 0 {
		e.printf("phase goodput: closed loop c=%d attempted=%d ok=%d failed=%d wrong=%d "+
			"goodput=%.1f/s (mean of %d windows of %v after a warm-up)\n",
			len(lcs), good.Attempted, good.OK, good.Failed, good.Wrong, mean(m.good), len(m.good), goodWindow)
	}
	b := m.bulk
	e.printf("phase bulk: closed loop attempted=%d ok=%d failed=%d wrong=%d batches=%d explores=%d distributed=%d "+
		"batch_ws_per_s=%.0f (median batch) explore_cands_per_s=%.0f explore_dist_cands_per_s=%.0f (work over time of the explores)\n",
		b.tally.Attempted, b.tally.OK, b.tally.Failed, b.tally.Wrong, b.counts["predict/batch"], b.counts["explore"],
		b.counts["explore/distributed"], batchSize/median(b.batchS),
		throughput(float64(ref.size), b.exploreS), throughput(float64(ref.size), b.distS))
	e.printf("rounds: %d of %v open, %v goodput, %v bulk\n", rounds, share(openF), share(goodF), share(bulkF))
	return m, nil
}

func (e *env) printOpen(label string, op openResult) {
	st := op.stats()
	e.printf("phase %s: open loop %.0f/s traced=%v attempted=%d ok=%d failed=%d wrong=%d "+
		"p50=%.1fus p99=%.1fus (window medians; pooled p50=%.1fus p99=%.1fus over n=%d) "+
		"gen.late_p50_us=%.1f gen.late_p99_us=%.1f backlog_max=%d queued_frac=%.4f achieved=%.1f/s generator_bound=%v\n",
		label, e.w.rate, label != "open", op.tally.Attempted, op.tally.OK, op.tally.Failed, op.tally.Wrong,
		st.p50, st.p99, st.pooledP50, st.pooledP99, st.n,
		st.lateP50, st.lateP99, st.backlogMax, st.queuedFrac, st.achievedRate, st.generatorLimited)
	if st.generatorLimited {
		e.printf("phase %s: INVALID: the generator, not ratd, was the bottleneck (gen.late_p50_us %.0f > %.0f)\n",
			label, st.lateP50, generatorLateLimit)
	}
}

// noteBulk adds a bulk loop's operations to the run's accounting.
func (e *env) noteBulk(b bulkResult) {
	e.tally.add(b.tally)
	for k, v := range b.counts {
		e.counts[k] += v
	}
}

func (e *env) printCounts() {
	keys := make([]string, 0, len(e.counts))
	for k := range e.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("/v1/%s=%d", k, e.counts[k])
	}
	e.printf("requests per endpoint: %s (attempted=%d ok=%d failed=%d wrong=%d)\n",
		strings.Join(parts, " "), e.tally.Attempted, e.tally.OK, e.tally.Failed, e.tally.Wrong)
}

// hostFingerprint names the machine a result came from.
func hostFingerprint() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("goos=%s goarch=%s gomaxprocs=%d nproc=%d go=%s cpu=%q",
		runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cpu)
}

// quantile returns the q-quantile of xs by the nearest-rank method;
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// throughput is the work per second of operations that each did the
// given work and took the given seconds: total work over total time.
// On a shared 2-vCPU host a two-worker explore's time is bimodal, with
// the mode set by whether its threads get separate physical cores, so
// the median of per-explore rates jumps between the modes from run to
// run, while this moves only with their mix. A batch is a few
// milliseconds, so a host stall can multiply one batch's time; its
// rate is the median batch's instead.
func throughput(work float64, secs []float64) float64 {
	return work * float64(len(secs)) / sum(secs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
