// Command bench is the repository's workload benchmark. Each invocation
// runs one workload: it generates the inputs from the seed, runs the
// public fill entry points on them for a fixed time, checks every output,
// and prints each metric as "workload metric value unit" followed by a
// one-line JSON result.
//
//	bash bench/run.sh --workload cold-b --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload eco-b --seed 2 --trace 1 --trace-out eco.json
//	bash bench/run.sh --compare --parent 'base/*.json' --change 'new/*.json'
//
// With --trace 0 the result carries the end-to-end metrics, measured
// untraced; with --trace 1 it carries the per-layer metrics of traced
// jobs. See README.md for the workloads, the metric catalogue and how to
// compare two commits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON summary of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a run's full result, as written by --out and read by
// --compare.
type record struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Trace      bool           `json:"trace"`
	Seconds    float64        `json:"seconds"`
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	WallS      float64        `json:"wall_s"`
	Samples    map[string]int `json:"samples"`
	// Raw holds the individual measurements behind the medians.
	Raw    map[string][]float64 `json:"raw,omitempty"`
	Gates  map[string]float64   `json:"gates"`
	Errors []string             `json:"errors,omitempty"`
	Result result               `json:"result"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (one of: "+workloadNames()+")")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	secs := fs.Float64("seconds", 20, "length of the timed region in seconds")
	trace := fs.Int("trace", 0, "1 runs traced jobs and reports per-layer metrics, 0 reports end-to-end metrics")
	out := fs.String("out", "", "also write the full result as JSON to this file")
	traceOut := fs.String("trace-out", "", "with --trace 1, write the spans as Chrome trace-event JSON to this file")
	compare := fs.Bool("compare", false, "compare --parent result files with --change result files and exit")
	parent := fs.String("parent", "", "with --compare, glob of the parent commit's result files")
	change := fs.String("change", "", "with --compare, glob of the changed commit's result files")
	bounds := fs.String("benchmark", "BENCHMARK.json", "with --compare, the file holding each end-to-end metric's regression bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if err := runCompare(stdout, *bounds, *parent, *change); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w, err := lookupWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *secs <= 0 {
		fmt.Fprintf(stderr, "bench: need --workload (%s), --trace 0 or 1 and positive --seconds\n", workloadNames())
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	c := &config{seed: *seed, seconds: time.Duration(*secs * float64(time.Second)), trace: *trace == 1}
	rec, err := execute(ctx, w, c)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if c.trace && *traceOut != "" {
		if err := writeJSONFile(*traceOut, func(w io.Writer) error { return writeChromeTrace(w, c.rec.spans()) }); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *out != "" {
		if err := writeJSONFile(*out, func(w io.Writer) error { return json.NewEncoder(w).Encode(rec) }); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	printResult(stdout, rec)
	for _, e := range rec.Errors {
		fmt.Fprintln(stderr, "bench: check failed:", e)
	}
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

// execute runs one workload in a temporary directory it removes after
// and assembles its record.
func execute(ctx context.Context, w workload, c *config) (*record, error) {
	dir, err := os.MkdirTemp("", "dummyfill-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c.dir = dir
	if c.trace {
		c.rec = newRecorder()
	}
	t0 := time.Now()
	o, err := w.run(ctx, c)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec := &record{
		Workload: w.name, Seed: c.seed, Trace: c.trace, Seconds: c.seconds.Seconds(),
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		WallS: time.Since(t0).Seconds(), Samples: o.samples, Raw: o.raw, Gates: o.gates, Errors: o.errs,
	}
	rec.Result = result{
		Correct: len(o.errs) == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricValue{},
	}
	for k, v := range o.endToEnd {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s = %v", w.name, k, v)
		}
	}
	for k, v := range o.perLayer {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s = %v", w.name, k, v)
		}
	}
	if !c.trace {
		for _, d := range endToEndMetrics {
			v, ok := o.endToEnd[d.Name]
			if !ok {
				return nil, fmt.Errorf("%s: end-to-end metric %s not measured", w.name, d.Name)
			}
			rec.Result.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
		return rec, nil
	}
	for _, d := range perLayerMetrics {
		// A layer this workload's traced jobs do not reach did no work in
		// them, so its metrics read 0.
		rec.Result.Metrics[d.Name] = metricValue{Value: o.perLayer[d.Name], Unit: d.Unit}
	}
	for k := range o.perLayer {
		if !isPerLayer(k) {
			return nil, fmt.Errorf("%s: per-layer metric %s is not in the catalogue", w.name, k)
		}
	}
	return rec, nil
}

// printResult prints one line per metric and then the JSON result, which
// is always the last line.
func printResult(w io.Writer, rec *record) {
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Fprintf(w, "%s %s %v %s\n", rec.Workload, n, m.Value, m.Unit)
	}
	b, err := json.Marshal(rec.Result)
	if err != nil {
		// execute admits only finite numbers, so the result always encodes.
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", b)
}

func writeJSONFile(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

func isPerLayer(name string) bool {
	for _, d := range perLayerMetrics {
		if d.Name == name {
			return true
		}
	}
	return false
}
