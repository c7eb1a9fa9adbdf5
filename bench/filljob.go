package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	dummyfill "dummyfill"
	"dummyfill/internal/fill"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
)

// fileJob is one file-to-file fill: read the input deck, fill it, and
// stream the filled layout into the output deck in the same format.
type fileJob struct {
	in, out string
	format  string
	ingest  dummyfill.IngestOptions
	opts    fill.Options
}

// readInput ingests the job's input deck.
func (j fileJob) readInput() (*layout.Layout, error) {
	f, err := os.Open(j.in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dummyfill.ReadLayoutFormat(f, j.format, j.ingest)
}

// run is the untraced user path, the library calls `fillgen -in` makes.
func (j fileJob) run(ctx context.Context) (*fill.Result, error) {
	lay, err := j.readInput()
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", j.in, err)
	}
	o, err := os.Create(j.out)
	if err != nil {
		return nil, err
	}
	res, err := dummyfill.InsertStreamTo(ctx, o, lay, j.opts, j.format)
	if err != nil {
		o.Close()
		return nil, fmt.Errorf("fill %s: %w", j.in, err)
	}
	return res, o.Close()
}

// jobTrace is what one traced job leaves besides its spans.
type jobTrace struct {
	run                  int
	res                  *fill.Result
	inBytes, outBytes    int64
	shapesRead           int
	shapesWritten, fills int
	emits                []time.Duration // recorder clock
	rt                   runtimeCounters
	workers              int
	wall                 time.Duration
}

// traced makes the same calls as run, and as InsertStreamTo inside it, in
// the same order, with a span around each layer's entry point: ingest,
// fill.New, the writer preamble, Engine.RunStream (one write span per
// emitted window, solver calls through a timing shim) and the writer's
// Close. Its output must be byte-identical to run's.
func (j fileJob) traced(ctx context.Context, rec *recorder) (*jobTrace, error) {
	jt := &jobTrace{run: rec.newRun(), workers: runtime.GOMAXPROCS(0)}
	buf, sinkBuf := rec.newBuf(), rec.newBuf()
	jobID := rec.newID()
	rt0 := readRuntimeCounters()
	t0 := time.Now()
	jobStart := rec.now()
	record := func(b *spanBuf, name string, parent int64, start time.Duration) {
		b.add(span{ID: rec.newID(), Parent: parent, Run: jt.run, Name: name, Start: start, End: rec.now()})
	}

	start := rec.now()
	lay, err := j.readInput()
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", j.in, err)
	}
	record(buf, spanIngest, jobID, start)
	for _, l := range lay.Layers {
		jt.shapesRead += len(l.Wires)
	}

	runID := rec.newID()
	opts := j.opts
	opts.NewSolver = tracedSolverFactory(rec, jt.run, runID)
	start = rec.now()
	eng, err := fill.New(lay, opts)
	if err != nil {
		return nil, err
	}
	record(buf, spanFillNew, jobID, start)

	o, err := os.Create(j.out)
	if err != nil {
		return nil, err
	}
	defer o.Close()
	f, err := layio.Lookup(j.format)
	if err != nil {
		return nil, err
	}
	start = rec.now()
	sw, err := f.NewShapeWriter(o, layio.Header{Name: lay.Name, Struct: "TOP", Die: lay.Die, Sites: lay.Sites})
	if err != nil {
		return nil, err
	}
	if f.EmitsWires {
		for li, l := range lay.Layers {
			for _, r := range l.Wires {
				if err := sw.Write(layio.Shape{Layer: li, Datatype: layio.DatatypeWire, Rect: r}); err != nil {
					return nil, err
				}
				jt.shapesWritten++
			}
		}
	}
	record(buf, spanWrite, jobID, start)

	runStart := rec.now()
	res, err := eng.RunStream(ctx, fill.SinkFunc(func(_ int, fills []layout.Fill) error {
		start := rec.now()
		jt.emits = append(jt.emits, start)
		for _, fl := range fills {
			if err := sw.Write(layio.Shape{Layer: fl.Layer, Datatype: layio.DatatypeFill, Rect: fl.Rect}); err != nil {
				return err
			}
		}
		jt.fills += len(fills)
		record(sinkBuf, spanWrite, runID, start)
		return nil
	}))
	if err != nil {
		return nil, fmt.Errorf("fill %s: %w", j.in, err)
	}
	buf.add(span{ID: runID, Parent: jobID, Run: jt.run, Name: spanFillRun, Start: runStart, End: rec.now()})
	jt.shapesWritten += jt.fills
	jt.res = res

	start = rec.now()
	if err := sw.Close(); err != nil {
		return nil, err
	}
	if err := o.Close(); err != nil {
		return nil, err
	}
	record(buf, spanWrite, jobID, start)
	buf.add(span{ID: jobID, Run: jt.run, Name: spanJob, Start: jobStart, End: rec.now()})
	jt.wall = time.Since(t0)
	jt.rt = readRuntimeCounters().sub(rt0)
	if jt.inBytes, err = fileSize(j.in); err != nil {
		return nil, err
	}
	if jt.outBytes, err = fileSize(j.out); err != nil {
		return nil, err
	}
	return jt, nil
}

// layerMetrics derives the per-layer metrics of one traced job from its
// spans and counters.
func (jt *jobTrace) layerMetrics(spans []span) map[string]float64 {
	var job, ingest, fillNew, fillRun span
	var runKids []span
	var writeBusy time.Duration
	m := map[string]float64{}
	for _, s := range spans {
		switch s.Name {
		case spanJob:
			job = s
		case spanIngest:
			ingest = s
		case spanFillNew:
			fillNew = s
		case spanFillRun:
			fillRun = s
		case spanWrite:
			writeBusy += s.dur()
		}
	}
	for _, s := range spans {
		if s.Parent == fillRun.ID && s.Parent != 0 {
			runKids = append(runKids, s)
		}
	}
	h := jt.res.Health

	m["ingest.busy_s"] = ingest.dur().Seconds()
	m["ingest.shapes"] = float64(jt.shapesRead)
	m["ingest.mb_per_s"] = float64(jt.inBytes) / 1e6 / ingest.dur().Seconds()

	m["fill.new_s"] = fillNew.dur().Seconds()
	if len(jt.emits) > 0 {
		m["fill.first_emit_s"] = (jt.emits[0] - fillRun.Start).Seconds()
		m["fill.size_emit_s"] = (fillRun.End - jt.emits[0]).Seconds()
	}
	m["fill.self_s"] = selfTime(fillRun, runKids).Seconds()
	var gaps []float64
	for i := 1; i < len(jt.emits); i++ {
		gaps = append(gaps, float64((jt.emits[i]-jt.emits[i-1]).Nanoseconds())/1e6)
	}
	m["fill.window_gap_p50_ms"] = nearestRank(gaps, 50)
	m["fill.window_gap_p99_ms"] = nearestRank(gaps, 99)
	m["fill.windows"] = float64(jt.res.Windows)
	m["fill.candidates"] = float64(jt.res.Candidates)
	m["fill.fills"] = float64(jt.fills)
	if jt.res.Candidates > 0 {
		m["fill.fill_yield"] = float64(jt.fills) / float64(jt.res.Candidates)
	}
	m["fill.fallback_cold"] = float64(h.FallbackCold)
	m["fill.fallback_simplex"] = float64(h.FallbackSimplex)
	m["fill.degraded"] = float64(h.Degraded)
	m["fill.peak_in_flight"] = float64(h.PeakInFlight)

	addDLPMetrics(m, spans, fillRun.dur(), jt.workers)

	m["layio.write_busy_s"] = writeBusy.Seconds()
	m["layio.write_shapes"] = float64(jt.shapesWritten)
	m["layio.write_mib"] = float64(jt.outBytes) / mib
	m["layio.write_mib_per_s"] = float64(jt.outBytes) / mib / writeBusy.Seconds()

	m["runtime.alloc_mib"] = float64(jt.rt.allocBytes) / mib
	m["runtime.gc_cycles"] = float64(jt.rt.gcCycles)
	m["runtime.gc_cpu_s"] = jt.rt.gcCPU

	m["trace.spans"] = float64(len(spans))
	// The job's direct children tile it; what they leave uncovered is
	// time the spans do not attribute to any layer.
	m["trace.unattributed_frac"] = selfTime(job, spans).Seconds() / job.dur().Seconds()
	return m
}

// addDLPMetrics adds the solver metrics of the dlp.solve spans among
// spans, which ran on up to workers goroutines during wall.
func addDLPMetrics(m map[string]float64, spans []span, wall time.Duration, workers int) {
	var busy time.Duration
	var calls []float64
	vars, cons, errs := 0, 0, 0
	for _, s := range spans {
		if s.Name != spanSolve {
			continue
		}
		busy += s.dur()
		calls = append(calls, float64(s.dur().Nanoseconds())/1e3)
		vars += s.Vars
		cons += s.Cons
		if s.Failed {
			errs++
		}
	}
	m["dlp.calls"] = float64(len(calls))
	m["dlp.vars"] = float64(vars)
	m["dlp.constraints"] = float64(cons)
	m["dlp.errors"] = float64(errs)
	m["dlp.busy_s"] = busy.Seconds()
	m["dlp.busy_share"] = busy.Seconds() / (wall.Seconds() * float64(workers))
	m["dlp.call_p50_us"] = nearestRank(calls, 50)
	m["dlp.call_p99_us"] = nearestRank(calls, 99)
}

// checkResult is what checking one output deck found.
type checkResult struct {
	drc     int
	quality float64
	fills   int
	outMiB  float64
}

// checkDeck re-reads an output deck through layio, independently of the
// run that wrote it, and checks the fills it holds against lay: geometric
// DRC, site DRC in site mode, and the contest Testcase Quality
// recomputed from the re-read fills under coefficients calibrated on lay.
func checkDeck(deck []byte, format string, lay *layout.Layout, opts fill.Options) (checkResult, error) {
	f, err := layio.Lookup(format)
	if err != nil {
		return checkResult{}, err
	}
	sr := f.NewShapeReader(bytes.NewReader(deck), f.Limits)
	sol := &layout.Solution{}
	for {
		s, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return checkResult{}, fmt.Errorf("re-read output: %w", err)
		}
		if s.Datatype == layio.DatatypeFill {
			sol.Fills = append(sol.Fills, layout.Fill{Layer: s.Layer, Rect: s.Rect})
		}
	}
	cr := checkResult{fills: len(sol.Fills), outMiB: float64(len(deck)) / mib}
	cr.drc = len(dummyfill.CheckDRC(lay, sol))
	if opts.Mode == fill.ModeSite {
		cr.drc += len(dummyfill.CheckSiteDRC(lay, sol, opts.SiteLib, opts.SitePad))
	}
	// The runtime and memory βs do not enter Quality.
	coeffs, err := dummyfill.Calibrate(lay, 1, 1)
	if err != nil {
		return checkResult{}, err
	}
	size, err := dummyfill.GDSSize(lay, sol)
	if err != nil {
		return checkResult{}, err
	}
	rep, err := dummyfill.Score(lay, sol, coeffs, dummyfill.Measured{FileSizeBytes: size})
	if err != nil {
		return checkResult{}, err
	}
	cr.quality = rep.Quality
	return cr, nil
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func hashFile(path string) ([32]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}
