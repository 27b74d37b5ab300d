package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// streamBytes renders n requests of a stream as one byte string.
func streamBytes(spec streamSpec, seed int64, n int) []byte {
	var buf bytes.Buffer
	for _, r := range newStream(spec, seed, 0).take(n) {
		buf.WriteString(r.path())
		buf.WriteByte(0)
		buf.Write(r.body)
		buf.WriteByte(0)
	}
	return buf.Bytes()
}

func TestStreamDeterministic(t *testing.T) {
	for _, spec := range []streamSpec{hotSpec, tailSpec} {
		a, b := streamBytes(spec, 7, 2000), streamBytes(spec, 7, 2000)
		if !bytes.Equal(a, b) {
			t.Fatalf("seed 7 gave two different request streams")
		}
		if bytes.Equal(a, streamBytes(spec, 8, 2000)) {
			t.Fatalf("seeds 7 and 8 gave the same request stream")
		}
	}
}

// modelShares replays the warm set and then n open-loop requests
// through the cache model, as a run does.
func modelShares(spec streamSpec, seed int64, n int) shares {
	m := newCacheModel(defaultCacheSize)
	for _, r := range warmSet(spec, seed) {
		m.observe(&r)
	}
	m.rawHits, m.canonHits, m.misses, m.multi = 0, 0, 0, 0
	for _, r := range newStream(spec, seed, 0).take(n) {
		m.observe(&r)
	}
	return m.shares()
}

func TestTailMissShare(t *testing.T) {
	w, _ := lookupWorkload("predict-tail")
	rounds, warm, perRound := openPlan(w, runSeconds(t), false)
	for seed := int64(1); seed <= 3; seed++ {
		sh := modelShares(tailSpec, seed, warm+rounds*perRound)
		if sh.Miss < 0.65 || sh.Miss > 0.90 {
			t.Errorf("seed %d: predict-tail miss share %.3f, want within [0.65, 0.90]", seed, sh.Miss)
		}
		if sh.Multi < 0.15 || sh.Multi > 0.25 {
			t.Errorf("seed %d: predict-tail multi-device share %.3f, want about 0.2", seed, sh.Multi)
		}
	}
}

func TestHotRawHitShare(t *testing.T) {
	w, _ := lookupWorkload("predict-hot")
	rounds, warm, perRound := openPlan(w, runSeconds(t), false)
	for seed := int64(1); seed <= 3; seed++ {
		if sh := modelShares(hotSpec, seed, warm+rounds*perRound); sh.RawHit < 0.9 || sh.Miss > 0 {
			t.Errorf("seed %d: predict-hot shares %+v, want >= 0.9 raw-alias hits and no misses", seed, sh)
		}
	}
}

func TestExploreGridSize(t *testing.T) {
	g, err := exploreRequest().Grid()
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Size(); got != 522_240 {
		t.Fatalf("explore grid has %d candidates, want 522240", got)
	}
}

// benchmarkFile is BENCHMARK.json as the repository root declares it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	seen := map[string]bool{}
	for _, w := range allWorkloads() {
		if seen[w.name] {
			t.Errorf("workload name %q is used twice", w.name)
		}
		seen[w.name] = true
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or used twice", d.name)
		}
		seen[d.name] = true
		if !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("metric %q: unit %q or better %q is malformed", d.name, d.unit, d.better)
		}
	}
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runSeconds is the run length BENCHMARK.json sets.
func runSeconds(t *testing.T) float64 { return float64(readBenchmarkFile(t).RunSeconds) }

func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the benchmark %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := bf.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if m := bf.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload, BENCHMARK.json's and the extra ones, briefly, untraced and traced, against a
// ratd built from this tree, and requires every metric and zero wrong
// answers.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ratd and runs each workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ratd")
	if out, err := exec.Command("go", "build", "-o", bin, "github.com/chrec/rat/cmd/ratd").CombinedOutput(); err != nil {
		t.Fatalf("building ratd: %v\n%s", err, out)
	}
	for _, w := range allWorkloads() {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-ratd", bin, "-dir", dir, "-workload", w.name, "-seed", "3", "-seconds", "2", "-trace", trace},
				&stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w.name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", w.name, trace,
					res.Correct, res.Attempted, res.Failed, stdout.String())
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%s: metric %s missing or in the wrong unit (%+v)", w.name, trace, d.name, m)
				}
			}
			if trace == "1" && !strings.Contains(stdout.String(), "RAT budget") {
				t.Errorf("%s: the traced run printed no budget table", w.name)
			}
		}
	}
}

func TestBareDirectoryFails(t *testing.T) {
	if testing.Short() {
		t.Skip("copies the benchmark and runs its build")
	}
	dir := t.TempDir()
	for _, name := range []string{"run.sh", "go.mod"} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, "e2ebench"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "e2ebench", name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", "e2ebench/run.sh", "--workload", "predict-tail", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("run.sh succeeded without the repository around it:\n%s", out)
	}
	if bytes.Contains(out, []byte(`"correct"`)) {
		t.Fatalf("run.sh printed a result without the repository around it:\n%s", out)
	}
}
