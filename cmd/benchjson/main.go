// Command benchjson runs the full fill-insertion flow on the synthetic
// benchmark designs and writes a machine-readable JSON report: wall-clock
// seconds, approximate peak live heap, contest quality/score, fill count
// and encoded GDSII size per design, plus the recorded seed baseline and
// the derived speedup factors.
//
//	benchjson -designs s,b,m -out BENCH_1.json
//	benchjson -designs b -out -          # print to stdout
//	benchjson -baseline ""               # omit the baseline comparison
//	benchjson -compare old.json new.json # delta table; exit 1 on regression
//	benchjson -in chip.gds -format auto  # benchmark an external layout
//	benchjson -workers 1                 # pin the worker count
//	benchjson -append -out BENCH_4.json  # add rows to an existing report
//
// Each design row records the GOMAXPROCS/workers it was measured under;
// -append merges new rows into an existing report so single- and
// multi-core measurements of the same designs can live side by side.
//
// The committed BENCH_*.json files at the repository root are generated by
// this command; regenerate after performance-relevant changes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	dummyfill "dummyfill"
	"dummyfill/cmd/internal/ingestfmt"
	"dummyfill/internal/exp"
	"dummyfill/internal/synth"
)

// DesignResult is one design's end-to-end measurement.
type DesignResult struct {
	Design   string  `json:"design"`
	WallSec  float64 `json:"wall_sec"`
	PeakMiB  float64 `json:"peak_mib"`
	Quality  float64 `json:"quality"`
	Score    float64 `json:"score"`
	Fills    int     `json:"fills"`
	GDSBytes int64   `json:"gds_bytes"`
	// GOMAXPROCS and Workers record the parallelism the row was measured
	// under, so rows from different topologies can coexist in one report
	// (see -append). Zero Workers means "one per core"; absent fields
	// mean the row predates this metadata. Older reports also carry keys
	// of the since-removed row-band sharding, which loading ignores.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	Workers    int `json:"workers,omitempty"`
	// Mode, FillLib and Pad identify the fill mode the row was measured
	// under. Empty Mode is the default continuous-rect mode; "site" rows
	// additionally record the filler master library and the site padding,
	// and -compare refuses to diff rows measured under different modes or
	// libraries (the numbers are not comparable).
	Mode    string `json:"mode,omitempty"`
	FillLib string `json:"fill_lib,omitempty"`
	Pad     int    `json:"pad,omitempty"`
	// DegradedWindows surfaces the row-level robustness signal directly:
	// windows that emitted unshrunk candidates (solver chain exhausted or
	// budget expired). It is also in Health; it is promoted so
	// comparisons and dashboards need not dig into the nested report.
	DegradedWindows int `json:"degraded_windows,omitempty"`
	// Eco marks incremental re-fill rows (-eco): "cold" is the run that
	// populated the fill cache, "warm" the re-run on the perturbed layout
	// replaying unchanged windows. EcoPct echoes the requested
	// perturbation (percent of windows). Cache counters come from the
	// run's Health; InvalidatedWindows = misses + stale (windows that
	// could not replay).
	Eco                string  `json:"eco,omitempty"`
	EcoPct             float64 `json:"eco_pct,omitempty"`
	CacheHits          int     `json:"cache_hits,omitempty"`
	CacheMisses        int     `json:"cache_misses,omitempty"`
	InvalidatedWindows int     `json:"invalidated_windows,omitempty"`
	// Health is the engine's degradation report (solver fallbacks,
	// degraded windows, budget use); absent for baseline entries.
	Health *dummyfill.Health `json:"health,omitempty"`
}

// Comparison relates a run to its baseline counterpart. Workers echoes
// the measured row's topology so multi-row reports stay unambiguous.
type Comparison struct {
	Design       string  `json:"design"`
	Workers      int     `json:"workers,omitempty"`
	SpeedupX     float64 `json:"speedup_x"`
	PeakMemRatio float64 `json:"peak_mem_ratio"`
	QualityDelta float64 `json:"quality_delta"`
}

// Output is the top-level JSON document.
type Output struct {
	GoVersion   string         `json:"go_version"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	BaselineRef string         `json:"baseline_ref,omitempty"`
	Baseline    []DesignResult `json:"baseline,omitempty"`
	Designs     []DesignResult `json:"designs"`
	Speedup     []Comparison   `json:"speedup,omitempty"`
}

// seedBaseline is the recorded performance of the pre-optimization tree
// (commit 7852a6a, Go 1.24, single-core container) measured with this
// same flow.
var seedBaseline = []DesignResult{
	{Design: "s", WallSec: 1.782, PeakMiB: 21.6, Quality: 0.6031, Score: 0.7753, Fills: 17125, GDSBytes: 1096104},
	{Design: "b", WallSec: 13.511, PeakMiB: 87.7, Quality: 0.5662, Score: 0.7313, Fills: 67985, GDSBytes: 4351144},
	{Design: "m", WallSec: 41.152, PeakMiB: 220.1, Quality: 0.5376, Score: 0.6849, Fills: 194134, GDSBytes: 12424680},
}

func main() {
	designs := flag.String("designs", "s,b,m", "comma-separated design list")
	out := flag.String("out", "BENCH_1.json", "output file (- for stdout)")
	in := flag.String("in", "", "external layout file to benchmark instead of -designs")
	format := flag.String("format", "auto", "input layout format for -in: auto (sniff), "+strings.Join(dummyfill.Formats(), ", "))
	deadline := flag.Duration("deadline", 0, "soft per-design time budget: past it, remaining windows emit unshrunk candidates instead of failing (0 = unlimited)")
	workers := flag.Int("workers", 0, "window-level parallelism (0 = all cores)")
	mode := flag.String("mode", "rect", "fill mode: rect (continuous rectangles) or site (filler-cell placement; needs a design with rows, e.g. -designs row)")
	pads := flag.String("pad", "0", "site-mode padding, or a comma-separated sweep (e.g. 0,1,2: one row per padding per design; ignored with -mode rect)")
	appendFlag := flag.Bool("append", false, "append this run's design rows to an existing -out file instead of overwriting it (keeps its rows, refreshes baseline/speedup)")
	cacheDir := flag.String("cache", "", "persistent fill-cache directory for incremental re-fill (created if missing; -eco uses a temp dir when unset)")
	ecoPct := flag.Float64("eco", 0, "ECO mode: measure a cold cache-populating run, perturb ~pct percent of each design's windows, and measure the warm incremental re-run (two rows per design)")
	baseline := flag.String("baseline", "seed-7852a6a", "baseline label to embed (empty omits the comparison)")
	compare := flag.Bool("compare", false, "compare two benchjson outputs (benchjson -compare old.json new.json): print a delta table, exit non-zero if quality regressed")
	var prof exp.Profiling
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs exactly two files: benchjson -compare old.json new.json"))
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}

	if *deadline < 0 {
		fatal(fmt.Errorf("-deadline must be >= 0 (0 = unlimited), got %v", *deadline))
	}

	// Ctrl-C hard-aborts the current run; -deadline degrades gracefully.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	var doc Output
	if *appendFlag && *out != "-" {
		if data, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(data, &doc); err != nil {
				fatal(fmt.Errorf("-append: %s: %v", *out, err))
			}
		} else if !os.IsNotExist(err) {
			fatal(err)
		}
	}
	doc.GoVersion = runtime.Version()
	doc.GOMAXPROCS = runtime.GOMAXPROCS(0)
	doc.Baseline, doc.BaselineRef = nil, ""
	if *baseline != "" {
		doc.BaselineRef = *baseline
		doc.Baseline = seedBaseline
	}

	// Each job loads its layout lazily inside its own loop iteration, so
	// one design's (possibly large) layout is never resident while
	// another's run is being measured.
	type job struct {
		name string
		load func() (*dummyfill.Layout, dummyfill.Coefficients, error)
	}
	var jobs []job
	if *in != "" {
		path := *in
		jobs = append(jobs, job{name: path, load: func() (*dummyfill.Layout, dummyfill.Coefficients, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, dummyfill.Coefficients{}, err
			}
			defer f.Close()
			lay, err := ingestfmt.Read(f, *format, dummyfill.IngestOptions{})
			if err != nil {
				return nil, dummyfill.Coefficients{}, err
			}
			coeffs, err := dummyfill.Calibrate(lay, 60, 4096)
			return lay, coeffs, err
		}})
	} else {
		for _, name := range strings.Split(*designs, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			name := name
			jobs = append(jobs, job{name: name, load: func() (*dummyfill.Layout, dummyfill.Coefficients, error) {
				return dummyfill.GenerateBenchmark(name)
			}})
		}
	}

	if *ecoPct < 0 || *ecoPct > 100 {
		fatal(fmt.Errorf("-eco must be in [0, 100] percent, got %v", *ecoPct))
	}
	if *ecoPct > 0 && *in != "" {
		fatal(fmt.Errorf("-eco perturbs synthetic designs; it cannot be combined with -in"))
	}
	var padList []int
	for _, p := range strings.Split(*pads, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 {
			fatal(fmt.Errorf("-pad wants non-negative integers, got %q", p))
		}
		padList = append(padList, v)
	}
	if len(padList) == 0 {
		padList = []int{0}
	}
	if *mode != dummyfill.ModeSite && len(padList) > 1 {
		fatal(fmt.Errorf("-pad sweeps need -mode site"))
	}
	if *ecoPct > 0 && len(padList) > 1 {
		fatal(fmt.Errorf("-eco cannot be combined with a -pad sweep"))
	}
	var cache *dummyfill.FillCache
	if dir := *cacheDir; dir != "" || *ecoPct > 0 {
		if dir == "" {
			tmp, err := os.MkdirTemp("", "benchjson-cache-*")
			if err != nil {
				fatal(err)
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		var err error
		cache, err = dummyfill.OpenFillCache(dir)
		if err != nil {
			fatal(err)
		}
	}

	for _, j := range jobs {
		lay, coeffs, err := j.load()
		if err != nil {
			fatal(err)
		}
		name := j.name
		if *in != "" && lay.Name != "" {
			name = lay.Name
		}
		var cold DesignResult
		for _, padV := range padList {
			res, err := runLayout(ctx, name, lay, coeffs, *deadline, *workers, cache, *mode, padV)
			if err != nil {
				fatal(err)
			}
			if *ecoPct > 0 {
				res.Eco, res.EcoPct = "cold", *ecoPct
			}
			cold = res
			logRow(res)
			doc.Designs = append(doc.Designs, res)
		}
		if *ecoPct > 0 {
			ecoLay, moved, err := synth.PerturbECO(lay, *ecoPct/100, 1)
			if err != nil {
				fatal(err)
			}
			lay = nil // cold layout is no longer needed while the warm run is measured
			warm, err := runLayout(ctx, name, ecoLay, coeffs, *deadline, *workers, cache, *mode, padList[0])
			if err != nil {
				fatal(err)
			}
			warm.Eco, warm.EcoPct = "warm", *ecoPct
			speedup := 0.0
			if warm.WallSec > 0 {
				speedup = cold.WallSec / warm.WallSec
			}
			fmt.Fprintf(os.Stderr, "benchjson: eco design=%s moved_wires=%d invalidated_windows=%d warm_speedup=%.2fx\n",
				name, moved, warm.InvalidatedWindows, speedup)
			logRow(warm)
			doc.Designs = append(doc.Designs, warm)
		}
	}

	// Speedup is recomputed over the full row set so appended rows keep a
	// comparison each.
	doc.Speedup = nil
	if *baseline != "" {
		for _, d := range doc.Designs {
			if d.Eco != "" {
				continue // eco rows compare against their own cold run, not the seed
			}
			if d.Mode != "" {
				continue // the seed baseline is rect-mode; site rows have no counterpart
			}
			for _, b := range seedBaseline {
				if b.Design == d.Design && d.WallSec > 0 && b.PeakMiB > 0 {
					doc.Speedup = append(doc.Speedup, Comparison{
						Design:       d.Design,
						Workers:      d.Workers,
						SpeedupX:     round3(b.WallSec / d.WallSec),
						PeakMemRatio: round3(d.PeakMiB / b.PeakMiB),
						QualityDelta: round4(d.Quality - b.Quality),
					})
				}
			}
		}
	}

	enc, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

// modeLabel names a row's mode for error messages (empty = rect).
func modeLabel(m string) string {
	if m == "" {
		return dummyfill.ModeRect
	}
	return m
}

// rowKey identifies a design row for comparison. Besides the design it
// carries every field that tells two rows of one report apart: site-mode
// rows their mode and padding (so a padding sweep yields distinct rows
// and rect/site rows never silently pair up), multi-topology reports
// their GOMAXPROCS and worker count, and ECO reports the cold/warm run.
// Fields a row leaves unset are left out of its key.
func rowKey(d DesignResult) string {
	k := d.Design
	if d.Mode != "" {
		k += fmt.Sprintf("|%s|pad%d", d.Mode, d.Pad)
	}
	if d.GOMAXPROCS > 0 {
		k += fmt.Sprintf("|procs%d", d.GOMAXPROCS)
	}
	if d.Workers > 0 {
		k += fmt.Sprintf("|w%d", d.Workers)
	}
	if d.Eco != "" {
		k += "|eco-" + d.Eco
	}
	return k
}

// runCompare loads two benchjson outputs and prints a per-design delta
// table. It returns an error (→ non-zero exit) when any design's quality
// regressed, or when a design present in old is missing from new. Rows
// measured under different fill modes (or different filler libraries)
// are never diffed — the fill counts and quality are not comparable —
// so a cross-mode comparison is refused outright.
func runCompare(w io.Writer, oldPath, newPath string) error {
	load := func(path string) (map[string]DesignResult, *Output, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		var doc Output
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, nil, fmt.Errorf("%s: %v", path, err)
		}
		m := make(map[string]DesignResult, len(doc.Designs))
		for _, d := range doc.Designs {
			m[rowKey(d)] = d
		}
		return m, &doc, nil
	}
	oldBy, oldDoc, err := load(oldPath)
	if err != nil {
		return err
	}
	newBy, newDoc, err := load(newPath)
	if err != nil {
		return err
	}
	newModes := make(map[string]string, len(newDoc.Designs))
	for _, d := range newDoc.Designs {
		newModes[d.Design] = d.Mode
	}

	fmt.Fprintf(w, "%-20s %10s %10s %8s %10s %10s %9s %12s\n",
		"row", "old_sec", "new_sec", "speedup", "old_mib", "new_mib", "mem_x", "quality_d")
	var regressions []string
	for _, od := range oldDoc.Designs {
		nd, ok := newBy[rowKey(od)]
		if !ok {
			if m, seen := newModes[od.Design]; seen && m != od.Mode {
				return fmt.Errorf("cross-mode comparison refused: design %s is mode %q in %s but %q in %s (re-measure both under one -mode)",
					od.Design, modeLabel(od.Mode), oldPath, modeLabel(m), newPath)
			}
			regressions = append(regressions, fmt.Sprintf("row %s missing from %s", rowKey(od), newPath))
			continue
		}
		if od.FillLib != nd.FillLib {
			return fmt.Errorf("cross-library comparison refused: design %s measured with fill library %q in %s but %q in %s",
				od.Design, od.FillLib, oldPath, nd.FillLib, newPath)
		}
		speedup, memX := 0.0, 0.0
		if nd.WallSec > 0 {
			speedup = od.WallSec / nd.WallSec
		}
		if od.PeakMiB > 0 {
			memX = nd.PeakMiB / od.PeakMiB
		}
		qd := nd.Quality - od.Quality
		fmt.Fprintf(w, "%-20s %10.3f %10.3f %7.2fx %10.1f %10.1f %8.2fx %+12.4f\n",
			rowKey(od), od.WallSec, nd.WallSec, speedup, od.PeakMiB, nd.PeakMiB, memX, qd)
		if qd < 0 {
			regressions = append(regressions, fmt.Sprintf("row %s quality regressed %.4f -> %.4f", rowKey(od), od.Quality, nd.Quality))
		}
		if nd.Fills != od.Fills {
			fmt.Fprintf(w, "%-20s   fills %d -> %d, gds bytes %d -> %d\n", "", od.Fills, nd.Fills, od.GDSBytes, nd.GDSBytes)
		}
	}
	for _, nd := range newDoc.Designs {
		if _, ok := oldBy[rowKey(nd)]; !ok {
			fmt.Fprintf(w, "%-20s   (new row, no baseline)\n", rowKey(nd))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("quality regression:\n  %s", strings.Join(regressions, "\n  "))
	}
	return nil
}

// runLayout runs the engine on a prepared layout under the wall/heap
// sampler and scores the result with the supplied coefficients.
func runLayout(ctx context.Context, name string, lay *dummyfill.Layout, coeffs dummyfill.Coefficients, deadline time.Duration, workers int, cache *dummyfill.FillCache, mode string, pad int) (DesignResult, error) {
	opts := dummyfill.DefaultOptions()
	opts.Budget = deadline
	opts.Workers = workers
	opts.Cache = cache
	opts.Mode = mode
	opts.SitePad = pad
	var res *dummyfill.Result
	sec, mem, err := exp.Measure(func() error {
		var err error
		res, err = dummyfill.InsertContext(ctx, lay, opts)
		return err
	})
	if err != nil {
		return DesignResult{}, err
	}
	sz, err := dummyfill.GDSSize(lay, &res.Solution)
	if err != nil {
		return DesignResult{}, err
	}
	rep, err := dummyfill.Score(lay, &res.Solution, coeffs, dummyfill.Measured{
		FileSizeBytes: sz,
		Runtime:       time.Duration(sec * float64(time.Second)),
		MemoryMiB:     mem,
	})
	if err != nil {
		return DesignResult{}, err
	}
	dr := DesignResult{
		Design:             name,
		WallSec:            round3(sec),
		PeakMiB:            round1(mem),
		Quality:            round4(rep.Quality),
		Score:              round4(rep.Total),
		Fills:              len(res.Solution.Fills),
		GDSBytes:           sz,
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		Workers:            workers,
		DegradedWindows:    res.Health.Degraded,
		CacheHits:          res.Health.CacheHits,
		CacheMisses:        res.Health.CacheMisses,
		InvalidatedWindows: res.Health.CacheMisses + res.Health.CacheStale,
		Health:             &res.Health,
	}
	if mode != "" && mode != dummyfill.ModeRect {
		dr.Mode = mode
		dr.FillLib = dummyfill.DefaultFillLib().ID()
		dr.Pad = pad
	}
	return dr, nil
}

// logRow prints one design row's headline numbers to stderr.
func logRow(res DesignResult) {
	line := fmt.Sprintf("benchjson: design=%s workers=%d wall_sec=%.3f peak_mib=%.1f quality=%.4f score=%.4f fills=%d gds_bytes=%d degraded_windows=%d",
		res.Design, res.Workers, res.WallSec, res.PeakMiB, res.Quality, res.Score, res.Fills, res.GDSBytes, res.DegradedWindows)
	if res.Eco != "" {
		line += fmt.Sprintf(" eco=%s cache_hits=%d cache_misses=%d invalidated_windows=%d",
			res.Eco, res.CacheHits, res.CacheMisses, res.InvalidatedWindows)
	}
	fmt.Fprintln(os.Stderr, line)
}

func round1(v float64) float64 { return roundN(v, 10) }
func round3(v float64) float64 { return roundN(v, 1000) }
func round4(v float64) float64 { return roundN(v, 10000) }

func roundN(v float64, n float64) float64 {
	if v < 0 {
		return -roundN(-v, n)
	}
	return float64(int64(v*n+0.5)) / n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
