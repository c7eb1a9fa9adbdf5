// Command repro regenerates the paper's experimental tables and figures
// on the synthetic benchmark suite:
//
//	repro -exp table2                       # benchmark statistics + α/β (Table 2)
//	repro -exp table3 -designs s            # method comparison (Table 3)
//	repro -exp fig6                         # the worked dual min-cost-flow example
//	repro -exp cmp                          # post-CMP planarity motivation
//	repro -exp all -designs s,b,m           # everything
//	repro -exp table3 -render csv           # machine-readable output
//	repro -in design.gds -format auto       # Table 3 on an external layout
//
// The experiment logic lives in internal/exp; this command only parses
// flags, measures runtime/memory, and renders.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	dummyfill "dummyfill"
	"dummyfill/cmd/internal/ingestfmt"
	"dummyfill/internal/cmppad"
	"dummyfill/internal/exp"
	"dummyfill/internal/fill"
)

func main() {
	expName := flag.String("exp", "all", "experiment: table2, table3, fig6, cmp, all")
	designs := flag.String("designs", "s,b,m", "comma-separated design list")
	render := flag.String("render", "text", "output rendering: text, csv, md")
	in := flag.String("in", "", "external layout file: run Table 3 on it instead of the synthetic designs")
	formatName := flag.String("format", "auto", "input layout format for -in: auto (sniff), "+strings.Join(dummyfill.Formats(), ", "))
	window := flag.Int64("window", 0, "window size for -in layouts without one (0 = die/16)")
	deadline := flag.Duration("deadline", 0, "soft per-run time budget for the fill engine: past it, remaining windows emit unshrunk candidates instead of failing (0 = unlimited)")
	workers := flag.Int("workers", 0, "window-level parallelism for the fill engine (0 = all cores)")
	mode := flag.String("mode", "rect", "fill mode for the engine: rect (continuous rectangles) or site (filler-cell placement; needs a layout with rows, e.g. -designs row)")
	pad := flag.Int("pad", 0, "site-mode padding: empty sites kept between fillers and placed cells (ignored with -mode rect)")
	cacheDir := flag.String("cache", "", "persistent fill-cache directory for incremental re-fill (created if missing); repeated runs replay unchanged windows")
	var prof exp.Profiling
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *deadline < 0 {
		fatal(fmt.Errorf("-deadline must be >= 0 (0 = unlimited), got %v", *deadline))
	}

	// Interrupt (Ctrl-C) hard-aborts in-flight engine runs via context;
	// the -deadline budget, by contrast, degrades gracefully.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	format, err := exp.ParseFormat(*render)
	if err != nil {
		fatal(err)
	}
	var names []string
	for _, n := range strings.Split(*designs, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	opts := fill.DefaultOptions()
	opts.Budget = *deadline
	opts.Workers = *workers
	opts.Mode = *mode
	opts.SitePad = *pad
	if *cacheDir != "" {
		cache, err := dummyfill.OpenFillCache(*cacheDir)
		if err != nil {
			fatal(err)
		}
		opts.Cache = cache
	}
	out := os.Stdout
	text := format == exp.Text

	if *in != "" {
		if *expName != "table3" && *expName != "all" {
			fatal(fmt.Errorf("-in supports only -exp table3 (or all), got %q", *expName))
		}
		d, err := loadDesign(*in, *formatName, *window)
		if err != nil {
			fatal(err)
		}
		if text {
			fmt.Printf("== Table 3 on %s (%s) ==\n", *in, d.Name)
		}
		rows, err := exp.Table3Designs(ctx, []exp.Design{d}, opts, exp.Measure)
		if err != nil {
			fatal(err)
		}
		if err := exp.RenderTable3(out, format, rows); err != nil {
			fatal(err)
		}
		return
	}

	ran := false
	if *expName == "table2" || *expName == "all" {
		ran = true
		if text {
			fmt.Println("== Table 2: benchmark statistics and score coefficients ==")
		}
		rows, err := exp.Table2(names)
		if err != nil {
			fatal(err)
		}
		if err := exp.RenderTable2(out, format, rows); err != nil {
			fatal(err)
		}
		if text {
			fmt.Println()
		}
	}
	if *expName == "fig6" || *expName == "all" {
		ran = true
		if text {
			fmt.Println("== Fig. 6: dual min-cost-flow worked example (paper: x = [5 0 0 6], objective 29) ==")
		}
		rows, err := exp.Fig6()
		if err != nil {
			fatal(err)
		}
		if err := exp.RenderFig6(out, format, rows); err != nil {
			fatal(err)
		}
		if text {
			fmt.Println()
		}
	}
	if *expName == "table3" || *expName == "all" {
		ran = true
		if text {
			fmt.Println("== Table 3: experimental results (ours vs. baseline methods) ==")
		}
		rows, err := exp.Table3Ctx(ctx, names, opts, exp.Measure)
		if err != nil {
			fatal(err)
		}
		if err := exp.RenderTable3(out, format, rows); err != nil {
			fatal(err)
		}
		if text {
			for _, r := range rows {
				if r.Health != nil {
					fmt.Printf("health[%s/%s]: %s\n", r.Design, r.Method, r.Health)
				}
			}
			fmt.Println()
		}
	}
	if *expName == "cmp" || *expName == "all" {
		ran = true
		if text {
			fmt.Println("== CMP motivation: post-polish planarity before/after fill ==")
		}
		rows, err := exp.CMP(names, opts, cmppad.DefaultParams())
		if err != nil {
			fatal(err)
		}
		if err := exp.RenderCMP(out, format, rows); err != nil {
			fatal(err)
		}
		if text {
			fmt.Println()
		}
	}
	if !ran {
		fatal(fmt.Errorf("unknown -exp %q (want table2, table3, fig6, cmp or all)", *expName))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	os.Exit(1)
}

// loadDesign ingests an external layout (format "auto" sniffs from the
// first bytes) and calibrates contest-style coefficients for it. Binary
// formats carry no fill rules, so those get the default rule deck; text
// layouts keep the rules they declare.
func loadDesign(path, format string, window int64) (exp.Design, error) {
	f, err := os.Open(path)
	if err != nil {
		return exp.Design{}, err
	}
	defer f.Close()
	lay, err := ingestfmt.Read(f, format, dummyfill.IngestOptions{Window: window})
	if err != nil {
		return exp.Design{}, err
	}
	coeffs, err := dummyfill.Calibrate(lay, 60, 4096)
	if err != nil {
		return exp.Design{}, err
	}
	name := lay.Name
	if name == "" {
		name = path
	}
	return exp.Design{Name: name, Lay: lay, Coeffs: coeffs}, nil
}
