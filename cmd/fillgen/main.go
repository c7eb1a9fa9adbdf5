// Command fillgen runs the dummy fill insertion flow on a synthetic
// design and writes the solution (fills only, datatype 1):
//
//	fillgen -design s -o s_fill.gds
//	fillgen -design s -method tile-lp -lambda 1.3
//	fillgen -design m -stream              # bounded-memory streaming emit
//	fillgen -in chip.oas -format auto      # ingest any registered format
//	fillgen -design b -oformat oasis       # emit the solution as OASIS
//
// It prints the scored report for the run (except with -stream, which
// never assembles the solution in memory and so reports only counts and
// health).
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
	"dummyfill/internal/deffmt"
	"dummyfill/internal/exp"
	"dummyfill/internal/layio"
	"dummyfill/internal/oasis"
	"dummyfill/internal/textfmt"
)

func main() {
	design := flag.String("design", "s", "design name: s, b, m, row or tiny (ignored with -in)")
	in := flag.String("in", "", "input layout file; overrides -design")
	format := flag.String("format", "auto", "input layout format for -in: auto (sniff), "+strings.Join(dummyfill.Formats(), ", "))
	oformat := flag.String("oformat", "gds", "output solution format: "+strings.Join(dummyfill.Formats(), ", "))
	window := flag.Int64("window", 0, "window size for -in layouts without one (0 = die/16)")
	method := flag.String("method", "ours", "fill method: ours, tile-lp, montecarlo, greedy")
	out := flag.String("o", "", "output solution path (default <design>_fill.<ext>)")
	lambda := flag.Float64("lambda", 0, "candidate overfill factor λ (0 = default)")
	workers := flag.Int("workers", 0, "window-level parallelism (0 = all cores)")
	deadline := flag.Duration("deadline", 0, "soft time budget: past it, remaining windows emit unshrunk candidates instead of failing (0 = unlimited)")
	stream := flag.Bool("stream", false, "stream fills to the output as windows complete (method ours only; bounded memory, no score report)")
	mode := flag.String("mode", "rect", "fill mode: rect (continuous rectangles) or site (filler-cell placement; needs a layout with rows — DEF input or -design row)")
	pad := flag.Int("pad", 0, "site-mode padding: empty sites kept between fillers and placed cells (ignored with -mode rect)")
	cacheDir := flag.String("cache", "", "persistent fill-cache directory for incremental re-fill (created if missing; method ours only)")
	cacheGC := flag.String("cache-gc", "", "trim the -cache directory to this size (e.g. 256MB) and exit; no fill run")
	cacheGCAge := flag.Duration("cache-gc-age", 0, "with -cache-gc, also drop cache entries older than this (0 = no age bound)")
	diff := flag.String("diff", "", "old layout file: report per-window cache invalidation vs the current input instead of running the flow")
	var prof exp.Profiling
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *deadline < 0 {
		fatal(fmt.Errorf("-deadline must be >= 0 (0 = unlimited), got %v", *deadline))
	}

	// Ctrl-C hard-aborts the run; -deadline degrades it gracefully.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	ofmt, err := layio.Lookup(*oformat)
	if err != nil {
		fatal(err)
	}

	if *cacheGC != "" {
		if err := runCacheGC(*cacheDir, *cacheGC, *cacheGCAge); err != nil {
			fatal(err)
		}
		return
	}

	var lay *dummyfill.Layout
	var coeffs dummyfill.Coefficients
	if *in != "" {
		f, ferr := os.Open(*in)
		if ferr != nil {
			fatal(ferr)
		}
		lay, err = ingestfmt.Read(f, *format, dummyfill.IngestOptions{Window: *window})
		f.Close()
		if err != nil {
			fatal(err)
		}
		*design = lay.Name
		coeffs, err = dummyfill.Calibrate(lay, 60, 4096)
	} else {
		lay, coeffs, err = dummyfill.GenerateBenchmark(*design)
	}
	if err != nil {
		fatal(err)
	}
	opts := dummyfill.DefaultOptions()
	if *lambda > 0 {
		opts.Lambda = *lambda
	}
	opts.Mode = *mode
	opts.SitePad = *pad
	opts.Workers = *workers
	opts.Budget = *deadline
	var cache *dummyfill.FillCache
	if *cacheDir != "" {
		cache, err = dummyfill.OpenFillCache(*cacheDir)
		if err != nil {
			fatal(err)
		}
		opts.Cache = cache
	}

	if *diff != "" {
		if err := runDiff(ctx, *diff, *format, *window, lay, opts); err != nil {
			fatal(err)
		}
		return
	}

	if *stream {
		if *method != "ours" {
			fatal(fmt.Errorf("-stream supports only -method ours, got %q", *method))
		}
		path := *out
		if path == "" {
			path = *design + "_fill." + outExt(ofmt.Name)
		}
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		deck, err := layio.OpenDeck(ctx, f, ofmt, layio.SolutionDeck, lay)
		if err != nil {
			fatal(err)
		}
		res, err := dummyfill.InsertStream(ctx, lay, opts, deck)
		if err != nil {
			fatal(err)
		}
		if err := deck.Close(); err != nil {
			fatal(err)
		}
		info, err := f.Stat()
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("design %s, method ours (streamed): %d fills\n", *design, deck.Fills())
		fmt.Printf("health: %s\n", res.Health)
		printCacheStats(cache)
		fmt.Printf("wrote %s (%d bytes)\n", path, info.Size())
		return
	}

	var chosen *dummyfill.Method
	for _, m := range dummyfill.AllMethods(opts) {
		if m.Name == *method {
			m := m
			chosen = &m
			break
		}
	}
	if chosen == nil {
		fatal(fmt.Errorf("unknown method %q", *method))
	}

	rep, sol, health, err := dummyfill.RunMethodContext(ctx, *chosen, lay, coeffs)
	if err != nil {
		fatal(err)
	}
	if vs := dummyfill.CheckDRC(lay, sol); len(vs) != 0 {
		fmt.Fprintf(os.Stderr, "fillgen: WARNING: %d DRC violations (first: %v)\n", len(vs), vs[0])
	}
	if opts.Mode == dummyfill.ModeSite && chosen.Name == "ours" {
		if vs := dummyfill.CheckSiteDRC(lay, sol, opts.SiteLib, opts.SitePad); len(vs) != 0 {
			fmt.Fprintf(os.Stderr, "fillgen: WARNING: %d site DRC violations (first: %v)\n", len(vs), vs[0])
		} else {
			fmt.Printf("site DRC: clean (pad %d)\n", opts.SitePad)
		}
	}
	fmt.Printf("design %s, method %s: %d fills\n", *design, chosen.Name, len(sol.Fills))
	if health != nil {
		fmt.Printf("health: %s\n", health)
	}
	printCacheStats(cache)
	fmt.Println(rep)

	path := *out
	if path == "" {
		path = *design + "_fill." + outExt(ofmt.Name)
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	// The batch OASIS deck is sorted for modal reuse; -stream keeps the
	// engine's window order.
	if ofmt.Name == oasis.FormatName {
		sol = &dummyfill.Solution{Fills: oasis.ModalSorted(sol.Fills)}
	}
	if err := layio.WriteDeck(f, ofmt, layio.SolutionDeck, lay, sol); err != nil {
		fatal(err)
	}
	info, err := f.Stat()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", path, info.Size())
}

// outExt picks the conventional file extension for a format name.
func outExt(format string) string {
	switch format {
	case oasis.FormatName:
		return "oas"
	case textfmt.FormatName:
		return "txt"
	case deffmt.FormatName:
		return "def"
	default:
		return "gds"
	}
}

// printCacheStats reports the fill cache's counters for the run; the CI
// warm-cache smoke greps the hits figure.
func printCacheStats(c *dummyfill.FillCache) {
	if c == nil {
		return
	}
	st := c.Stats()
	fmt.Printf("cache: hits=%d misses=%d corrupt=%d puts=%d put-errors=%d (%s)\n",
		st.Hits, st.Misses, st.Corrupt, st.Puts, st.PutErrors, c.Dir())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fillgen:", err)
	os.Exit(1)
}
