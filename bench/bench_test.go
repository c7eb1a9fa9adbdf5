package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50},
	} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	if xs[0] != 15 || xs[4] != 50 {
		t.Errorf("nearestRank reordered its input: %v", xs)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n, want int
		ok      bool
	}{
		{100, 90, true}, // p90: rank 90, ten beyond; p91 leaves nine
		{150, 93, true},
		{30, 66, true},
		{11, 9, true},
		{10, 0, false},
		{0, 0, false},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("n=%d: got p%d ok=%v, want p%d ok=%v", c.n, p, ok, c.want, c.ok)
		}
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4, 4}, [3]float64{2.375, 4, 6.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample should not be ok")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	parent := span{ID: 1, Start: ms(0), End: ms(100)}
	children := []span{
		// Two solver calls on two workers overlap for 10 ms: their union
		// is 50 ms, not their 60 ms sum.
		{ID: 2, Parent: 1, Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Start: ms(30), End: ms(60)},
		// A child outliving its parent counts only inside it.
		{ID: 4, Parent: 1, Start: ms(90), End: ms(120)},
		// Another span's child is not this one's.
		{ID: 5, Parent: 9, Start: ms(60), End: ms(90)},
	}
	if got, want := selfTime(parent, children), ms(40); got != want {
		t.Errorf("self time = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != ms(100) {
		t.Errorf("self time without children = %v, want 100ms", got)
	}
}

// The sample is in the shape internal/serve exposes.
func TestParsePromServeMetrics(t *testing.T) {
	const text = `# HELP ignored
fillserved_cache_total{event="hit"} 7
fillserved_cache_total{event="miss"} 5
fillserved_jobs_total{status="ok"} 12
fillserved_queue_depth 0
fillserved_job_seconds_bucket{le="0.5"} 11
fillserved_job_seconds_bucket{le="+Inf"} 12
fillserved_job_seconds_sum 3.5
fillserved_job_seconds_count 12
`
	m, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{
		`fillserved_cache_total{event="hit"}`:      7,
		`fillserved_cache_total{event="miss"}`:     5,
		`fillserved_job_seconds_bucket{le="+Inf"}`: 12,
		`fillserved_job_seconds_count`:             12,
		`fillserved_queue_depth`:                   0,
	} {
		if got, ok := m[k]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, want)
		}
	}
	before := map[string]float64{"fillserved_job_seconds_sum": 1.5, "fillserved_job_seconds_count": 4}
	if got := histMean(before, m, "fillserved_job_seconds"); got != 0.25 {
		t.Errorf("mean of the samples between scrapes = %v, want 0.25", got)
	}
	if got := histMean(m, m, "fillserved_job_seconds"); got != 0 {
		t.Errorf("mean with no new samples = %v, want 0", got)
	}
	if _, err := parseProm(strings.NewReader("novalue\n")); err == nil {
		t.Error("a line without a value should fail")
	}
	if _, err := parseProm(strings.NewReader("x{a=\"b\"} NaNx\n")); err == nil {
		t.Error("a malformed value should fail")
	}
}

func TestOpenLoopLateness(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	if got := dueAt(3, 2); got != ms(1500) {
		t.Fatalf("request 3 at 2 req/s is due at %v, want 1.5s", got)
	}
	rs := []reqResult{
		{due: ms(0), sent: ms(1), gotConn: ms(2), done: ms(200), status: 200},
		// The generator stalled: sent 300 ms late. Its latency still
		// counts from when it was due.
		{due: ms(500), sent: ms(800), gotConn: ms(801), done: ms(1000), status: 200},
		// Refused and transport-failed requests count as failed and
		// contribute no latency sample.
		{due: ms(1000), sent: ms(1000), done: ms(1010), status: 429},
		{due: ms(1500), sent: ms(1502), done: ms(1600), err: errors.New("reset")},
	}
	s := summarize(rs)
	if s.failed != 2 {
		t.Errorf("failed = %d, want 2", s.failed)
	}
	if want := []float64{0.2, 0.5}; fmt.Sprint(s.latencies) != fmt.Sprint(want) {
		t.Errorf("latencies = %v, want %v", s.latencies, want)
	}
	if want := []float64{0.002, 0.301}; fmt.Sprint(s.connWaits) != fmt.Sprint(want) {
		t.Errorf("connection waits = %v, want %v", s.connWaits, want)
	}
	if s.lateMax != 0.3 {
		t.Errorf("worst generator lateness = %v, want 0.3", s.lateMax)
	}
}

func TestJudge(t *testing.T) {
	seq := func(base, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + step*float64(i%5)
		}
		return xs
	}
	parent := seq(10, 0.1) // 10.0–10.4, quartile spread 0.3
	for _, c := range []struct {
		name   string
		change []float64
		higher bool
		bound  float64
		want   string
	}{
		{"same runs", seq(10, 0.1), false, 0.1, unchanged},
		{"faster by more than the spread", seq(9, 0.1), false, 0.1, improved},
		{"slower within the bound", seq(10.5, 0.1), false, 0.1, unchanged},
		{"slower beyond the bound", seq(11.5, 0.1), false, 0.1, regressed},
		{"lower score is worse", seq(9, 0.1), true, 0.05, regressed},
		{"spread wider than the bound", seq(10.01, 0.1), false, 0.01, unresolved},
	} {
		if got := judge(parent, c.change, c.higher, c.bound).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	j := judge(parent, seq(9, 0.1), false, 0.1)
	if j.wins != 1 {
		t.Errorf("a uniformly faster change wins %v of pairs, want 1", j.wins)
	}
	if j := judge(parent, parent, false, 0.1); j.wins != 0 {
		t.Errorf("ties win %v of pairs, want 0", j.wins)
	}
}

// benchmarkJSON is the layout of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []metricDef     `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var e2e []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEndMetrics) {
		t.Errorf("end_to_end in BENCHMARK.json\n%v\ndiffers from the code's\n%v", e2e, endToEndMetrics)
	}
	if fmt.Sprint(bj.PerLayer) != fmt.Sprint(perLayerMetrics) {
		t.Errorf("per_layer in BENCHMARK.json\n%v\ndiffers from the code's\n%v", bj.PerLayer, perLayerMetrics)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at toy scale, traced, which
// also runs its untraced jobs, and checks that it passes its correctness
// gates and measures every metric of the catalogue.
func TestSmokeAllWorkloads(t *testing.T) {
	reached := map[string]bool{}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			c := &config{seed: 1, seconds: 300 * time.Millisecond, trace: true, toy: true, dir: t.TempDir(), rec: newRecorder()}
			if w.name == "serve-s" {
				c.seconds = 2 * time.Second
			}
			o, err := w.run(context.Background(), c)
			if err != nil {
				t.Fatal(err)
			}
			if len(o.errs) > 0 {
				t.Fatalf("correctness gates failed: %v", o.errs)
			}
			if o.attempted == 0 || o.failed != 0 {
				t.Errorf("attempted %d, failed %d", o.attempted, o.failed)
			}
			for _, d := range endToEndMetrics {
				if v, ok := o.endToEnd[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end %s = %v (measured %v), want > 0", d.Name, v, ok)
				}
			}
			for k := range o.perLayer {
				if !isPerLayer(k) {
					t.Errorf("per-layer metric %s is not in the catalogue", k)
				}
				reached[k] = true
			}
		})
	}
	for _, d := range perLayerMetrics {
		if !reached[d.Name] {
			t.Errorf("no workload measures per-layer metric %s", d.Name)
		}
	}
}

// TestCommandOutput checks the printed result: one line per metric with
// its unit, then a JSON object with exactly the four result keys.
func TestCommandOutput(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	w, err := lookupWorkload("site-rows")
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		c := &config{seed: 3, seconds: 200 * time.Millisecond, trace: trace, toy: true}
		rec, err := execute(context.Background(), w, c)
		if err != nil {
			t.Fatal(err)
		}
		var stdout bytes.Buffer
		printResult(&stdout, rec)
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		last := []byte(lines[len(lines)-1])
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(last, &keys); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
			t.Fatalf("result keys: %s", last)
		}
		defs := endToEndMetrics
		if trace {
			defs = perLayerMetrics
		}
		var r result
		if err := json.Unmarshal(last, &r); err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Attempted < 1 || len(r.Metrics) != len(defs) || len(lines) != len(defs)+1 {
			t.Fatalf("trace %v: correct %v attempted %d, %d metrics and %d lines for %d defined", trace, r.Correct, r.Attempted, len(r.Metrics), len(lines), len(defs))
		}
		for i, d := range defs {
			if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %v: metric %s = %+v, want unit %s", trace, d.Name, m, d.Unit)
			}
			if f := strings.Fields(lines[i]); len(f) != 4 || f[0] != "site-rows" || f[3] != r.Metrics[f[1]].Unit {
				t.Errorf("metric line %q", lines[i])
			}
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"latency_s","unit":"s","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(side string, seed int, latency float64) {
		r := record{Workload: "w", Seed: int64(seed), Gates: map[string]float64{"degraded_frac": 0}, Result: result{
			Correct: true, Attempted: 5, Metrics: map[string]metricValue{"latency_s": {latency, "s"}},
		}}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.json", side, seed)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for seed := 1; seed <= minPairs; seed++ {
		write("parent", seed, 1+0.01*float64(seed%3))
		write("change", seed, 0.8+0.01*float64(seed%3))
	}
	var out bytes.Buffer
	if err := runCompare(&out, bench, filepath.Join(dir, "parent-*.json"), filepath.Join(dir, "change-*.json")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "latency_s") || !strings.Contains(out.String(), improved) {
		t.Errorf("compare output:\n%s", out.String())
	}
	if err := runCompare(&out, bench, filepath.Join(dir, "parent-1*.json"), filepath.Join(dir, "change-*.json")); err == nil {
		t.Error("a comparison with fewer than ten runs on a side should fail")
	}
}
