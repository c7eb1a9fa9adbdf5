package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	dummyfill "dummyfill"
	"dummyfill/internal/fill"
	"dummyfill/internal/geom"
	"dummyfill/internal/layout"
	"dummyfill/internal/synth"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration // length of the timed region
	trace   bool
	toy     bool // smoke-test scale: design tiny, row ×1, short serve steps
	dir     string
	rec     *recorder // non-nil when trace is set
}

// outcome is one workload's measurements. endToEnd comes from untraced
// jobs only, perLayer from traced ones.
type outcome struct {
	endToEnd, perLayer map[string]float64
	// samples counts the measurements behind each metric that aggregates
	// more than one.
	samples   map[string]int
	raw       map[string][]float64 // the measurements behind each median
	gates     map[string]float64   // deterministic checks, recorded with the result
	attempted int
	failed    int
	errs      []string // failed correctness gates
}

func newOutcome() *outcome {
	return &outcome{
		endToEnd: map[string]float64{}, perLayer: map[string]float64{},
		samples: map[string]int{}, raw: map[string][]float64{}, gates: map[string]float64{},
	}
}

func (o *outcome) failf(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name, why string
	run       func(ctx context.Context, c *config) (*outcome, error)
}

var workloads = []workload{
	{"cold-b", "full flow file to file on design b at all cores: sizing, planning and GDS ingest dominate", runCold},
	{"eco-b", "ECO re-fill through the fill cache: planning and ingest run in full, sizing is skipped for ~99% of windows", runECO},
	{"site-rows", "solver-free site-mode fill of a 25600-window row design: DEF read and write dominate", runSiteRows},
	{"serve-s", "open-loop HTTP traffic at 2 req/s of design-s decks, half resubmitted: per-job fixed costs dominate", runServe},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// subSeed derives an independent seed for one use of the run seed.
func subSeed(seed int64, use string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, use)
	return int64(h.Sum64() >> 1)
}

// setupRuns is how many times a run builds its inputs in order to report
// the median set-up time.
const setupRuns = 3

// timeSetup runs setup setupRuns times (once when tracing, which reports
// no set-up time) and records the median as setup_s.
func timeSetup(c *config, o *outcome, setup func() error) error {
	n := setupRuns
	if c.trace {
		n = 1
	}
	var ts []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	o.endToEnd["setup_s"] = median(ts)
	o.samples["setup_s"] = n
	o.raw["setup_s"] = ts
	return nil
}

// writeFile creates path and fills it through emit.
func writeFile(path string, emit func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := emit(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// batch is a workload whose unit of work is one file-to-file fill job.
type batch struct {
	// prep runs untimed before every job; eco-b uses it to give each job
	// a fresh copy of the cold cache. traced tells it the job that
	// follows is traced.
	prep func(ctx context.Context, traced bool) error
	job  *fileJob
	// extra adds workload-specific per-layer metrics after a traced job.
	extra func(ctx context.Context, jt *jobTrace, m map[string]float64) error
}

// minJobs is the fewest timed jobs a run reports a median over.
const minJobs = 3

// runBatch runs a batch workload: one untimed check job that also warms
// up, then timed jobs until the timed region has lasted c.seconds and at
// least minJobs were measured. With tracing, traced and untraced jobs
// alternate; end-to-end metrics come from the untraced ones only.
func runBatch(ctx context.Context, c *config, o *outcome, b batch) error {
	prep := func(traced bool) error {
		if b.prep == nil {
			return nil
		}
		return b.prep(ctx, traced)
	}
	if err := prep(false); err != nil {
		return err
	}
	o.attempted++
	res, err := b.job.run(ctx)
	if err != nil {
		o.failed++
		return err
	}
	deck, err := os.ReadFile(b.job.out)
	if err != nil {
		return err
	}
	want := sha256.Sum256(deck)
	lay, err := b.job.readInput()
	if err != nil {
		return err
	}
	cr, err := checkDeck(deck, b.job.format, lay, b.job.opts)
	if err != nil {
		return err
	}
	if cr.drc != 0 {
		o.failf("output has %d DRC violations", cr.drc)
	}
	o.endToEnd["quality"] = cr.quality
	o.endToEnd["out_mib"] = cr.outMiB
	o.perLayer["check.drc_violations"] = float64(cr.drc)
	o.gates["drc_violations"] = float64(cr.drc)
	o.gates["degraded_frac"] = float64(res.Health.Degraded) / float64(res.Health.Windows)
	o.gates["windows"] = float64(res.Health.Windows)
	o.gates["cache_hit_ratio"] = float64(res.Health.CacheHits) / float64(res.Health.Windows)

	sameOutput := func(what string) error {
		got, err := hashFile(b.job.out)
		if err != nil {
			return err
		}
		if got != want {
			o.failf("%s output differs from the check job's (sha256 %x, want %x)", what, got, want)
		}
		return nil
	}

	var untraced []sample
	var tracedWalls []float64
	var layers []map[string]float64
	start := time.Now()
	for i := 0; time.Since(start) < c.seconds || len(untraced) < minJobs || (c.trace && len(layers) == 0); i++ {
		traced := c.trace && i%2 == 1
		if err := prep(traced); err != nil {
			return err
		}
		o.attempted++
		if traced {
			runtime.GC()
			jt, err := b.job.traced(ctx, c.rec)
			if err != nil {
				o.failed++
				return err
			}
			m := jt.layerMetrics(runSpans(c.rec.spans(), jt.run))
			if b.extra != nil {
				if err := b.extra(ctx, jt, m); err != nil {
					return err
				}
			}
			layers = append(layers, m)
			tracedWalls = append(tracedWalls, jt.wall.Seconds())
			if err := sameOutput("traced"); err != nil {
				return err
			}
			continue
		}
		s, err := measureJob(func() error {
			_, err := b.job.run(ctx)
			return err
		})
		if err != nil {
			o.failed++
			return err
		}
		untraced = append(untraced, s)
		if err := sameOutput("timed"); err != nil {
			return err
		}
	}

	walls, cpus, peaks := make([]float64, len(untraced)), make([]float64, len(untraced)), make([]float64, len(untraced))
	for i, s := range untraced {
		walls[i], cpus[i], peaks[i] = s.wall.Seconds(), s.cpu.Seconds(), s.peakMiB
	}
	o.endToEnd["latency_s"] = median(walls)
	o.endToEnd["cpu_s"] = median(cpus)
	o.endToEnd["peak_heap_mib"] = median(peaks)
	o.raw["latency_s"], o.raw["cpu_s"], o.raw["peak_heap_mib"] = walls, cpus, peaks
	for _, k := range []string{"latency_s", "cpu_s", "peak_heap_mib"} {
		o.samples[k] = len(untraced)
	}
	if c.trace {
		for k := range layers[0] {
			vs := make([]float64, len(layers))
			for i, m := range layers {
				vs[i] = m[k]
			}
			o.perLayer[k] = median(vs)
		}
		o.perLayer["trace.overhead_frac"] = median(tracedWalls)/median(walls) - 1
		o.samples["per_layer"] = len(layers)
	}
	return nil
}

// gdsJob is a job that fills a GDS deck of spec's design.
func gdsJob(c *config, name string, sp synth.Spec, die dummyfill.Rect) fileJob {
	return fileJob{
		in:     filepath.Join(c.dir, name+".gds"),
		out:    filepath.Join(c.dir, name+"-out.gds"),
		format: "gds",
		ingest: dummyfill.IngestOptions{Window: sp.Window, Rules: sp.Rules, Die: die},
		opts:   dummyfill.DefaultOptions(),
	}
}

// clusterSpec is the clustered-wiring design of the batch workloads:
// design b, or the tiny design at smoke-test scale. Its Spec.Seed stays
// fixed; the run seed picks an ECO edit of it instead (see README).
func clusterSpec(c *config) synth.Spec {
	if c.toy {
		return synth.DesignTiny()
	}
	return synth.DesignB()
}

// seededBase generates the batch workloads' input layout for the run
// seed: the cluster design with a seed-chosen 2 % ECO edit applied.
func seededBase(c *config) (*layout.Layout, error) {
	lay, err := synth.Generate(clusterSpec(c))
	if err != nil {
		return nil, err
	}
	base, _, err := synth.PerturbECO(lay, 0.02, subSeed(c.seed, "base"))
	return base, err
}

func writeGDS(path string, lay *layout.Layout) error {
	return writeFile(path, func(w *bufio.Writer) error { return dummyfill.WriteGDS(w, lay, nil) })
}

// runCold is the cold-b workload: every job reads the GDS deck, fills it
// at all cores and streams the filled GDS into a file.
func runCold(ctx context.Context, c *config) (*outcome, error) {
	o := newOutcome()
	sp := clusterSpec(c)
	var job fileJob
	err := timeSetup(c, o, func() error {
		base, err := seededBase(c)
		if err != nil {
			return err
		}
		job = gdsJob(c, "cold", sp, base.Die)
		return writeGDS(job.in, base)
	})
	if err != nil {
		return nil, err
	}
	return o, runBatch(ctx, c, o, batch{job: &job})
}

// runECO is the eco-b workload. An untimed cold run fills the base deck
// and writes every window to the fill cache; each timed warm job fills
// the ECO-edited deck through a copy of that cache, replaying the
// windows the edit did not touch.
func runECO(ctx context.Context, c *config) (*outcome, error) {
	o := newOutcome()
	sp := clusterSpec(c)
	var cold, warm fileJob
	var base *layout.Layout
	moved := 0
	// edit writes the k-th seed-derived ECO edit of the base as the warm
	// job's deck. The edit is half the size of the base's own: how much a
	// warm job recomputes, and so its time and heap, depends on where the
	// edit lands, and a smaller edit keeps that share of the job small.
	edit := func(k int) error {
		eco, n, err := synth.PerturbECO(base, ecoEdit, subSeed(c.seed, fmt.Sprintf("eco/%d", k)))
		if err != nil {
			return err
		}
		moved = n
		warm = gdsJob(c, "eco-edit", sp, eco.Die)
		return writeGDS(warm.in, eco)
	}
	err := timeSetup(c, o, func() error {
		var err error
		if base, err = seededBase(c); err != nil {
			return err
		}
		cold = gdsJob(c, "eco-base", sp, base.Die)
		if err := writeGDS(cold.in, base); err != nil {
			return err
		}
		return edit(0)
	})
	if err != nil {
		return nil, err
	}

	// A cold run fills the base deck into an empty cache once per kind of
	// run: the traced solver shim changes the cache fingerprint, so traced
	// warm runs need a cache a traced cold run wrote. Every warm job then
	// starts from a fresh copy of that cache, because a warm run writes
	// back the windows it recomputed.
	snapshots := map[bool]string{}
	cacheDir := filepath.Join(c.dir, "fillcache")
	openCache := func(dir string) error {
		cache, err := dummyfill.OpenFillCache(dir)
		if err != nil {
			return err
		}
		cold.opts.Cache, warm.opts.Cache = cache, cache
		return nil
	}
	prep := func(ctx context.Context, traced bool) error {
		snap, ok := snapshots[traced]
		if !ok {
			snap = filepath.Join(c.dir, fmt.Sprintf("fillcache-cold-%v", traced))
			if err := openCache(snap); err != nil {
				return err
			}
			var res *fill.Result
			var err error
			if traced {
				var jt *jobTrace
				if jt, err = cold.traced(ctx, c.rec); err == nil {
					res = jt.res
				}
			} else {
				res, err = cold.run(ctx)
			}
			if err != nil {
				return err
			}
			if res.Health.CacheHits != 0 {
				o.failf("cold run hit an empty cache %d times", res.Health.CacheHits)
			}
			snapshots[traced] = snap
		}
		if err := os.RemoveAll(cacheDir); err != nil {
			return err
		}
		if err := copyDir(snap, cacheDir); err != nil {
			return err
		}
		return openCache(cacheDir)
	}
	extra := func(ctx context.Context, jt *jobTrace, m map[string]float64) error {
		h := jt.res.Health
		m["fillcache.hits"] = float64(h.CacheHits)
		m["fillcache.misses"] = float64(h.CacheMisses)
		m["fillcache.stale"] = float64(h.CacheStale)
		m["fillcache.errors"] = float64(h.CacheErrors)
		m["fillcache.hit_ratio"] = float64(h.CacheHits) / float64(jt.res.Windows)
		m["eco.invalidated_windows"] = float64(jt.res.Windows - h.CacheHits)
		m["eco.moved_wires"] = float64(moved)
		entries, bytes, err := dirUsage(snapshots[true])
		if err != nil {
			return err
		}
		m["fillcache.entries"] = float64(entries)
		m["fillcache.disk_mib"] = float64(bytes) / mib
		return nil
	}
	// An edit can shift a planned target density by a search step, and
	// then every window misses. Such an edit is a different workload, so
	// the run takes the first seed-derived edit that keeps the targets.
	// Finding it is not part of setup_s.
	for k := 1; ; k++ {
		if err := prep(ctx, false); err != nil {
			return nil, err
		}
		res, err := warm.run(ctx)
		if err != nil {
			return nil, err
		}
		if 2*res.Health.CacheHits > res.Windows {
			break
		}
		if k == maxEdits {
			return nil, fmt.Errorf("none of %d ECO edits kept the planned targets", maxEdits)
		}
		if err := edit(k); err != nil {
			return nil, err
		}
	}
	if err := runBatch(ctx, c, o, batch{prep: prep, job: &warm, extra: extra}); err != nil {
		return nil, err
	}
	if !c.trace {
		return o, nil
	}
	// The cost of the cache's write path: cold runs writing into an empty
	// cache against the same deck filled without a cache, alternating.
	// Both must write the same bytes.
	plain := cold
	plain.opts.Cache = nil
	plain.out = filepath.Join(c.dir, "eco-base-plain.gds")
	times := map[*fileJob][]float64{}
	for i := 0; i < 2; i++ {
		if err := openCache(filepath.Join(c.dir, fmt.Sprintf("fillcache-write-%d", i))); err != nil {
			return nil, err
		}
		for _, j := range []*fileJob{&cold, &plain} {
			t0 := time.Now()
			if _, err := j.run(ctx); err != nil {
				return nil, err
			}
			times[j] = append(times[j], time.Since(t0).Seconds())
		}
	}
	o.perLayer["fillcache.write_overhead_s"] = median(times[&cold]) - median(times[&plain])
	a, err := hashFile(plain.out)
	if err != nil {
		return nil, err
	}
	b, err := hashFile(cold.out)
	if err != nil {
		return nil, err
	}
	if a != b {
		o.failf("cold run with cache writes differs from the run without a cache")
	}
	return o, nil
}

// copyDir copies the regular files of the tree at src into dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// ecoEdit is the share of windows eco-b's edit touches.
const ecoEdit = 0.01

// maxEdits bounds the ECO edits eco-b tries; most keep the planned
// targets of design b.
const maxEdits = 16

// dirUsage counts the regular files under dir and their bytes.
func dirUsage(dir string) (files int, bytes int64, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files++
		bytes += info.Size()
		return nil
	})
	return files, bytes, err
}

// rowSpec is the site-rows design: the row design scaled 16× per side
// (800 rows × 9600 sites, 25600 windows), or unscaled at smoke-test
// scale. Like the cluster design, its Spec.Seed stays fixed and the run
// seed picks an edit of it.
func rowSpec(c *config) synth.Spec {
	sp := synth.DesignRow()
	if !c.toy {
		const k = 16
		sg := *sp.Sites
		sg.Rows, sg.Sites = sg.Rows*k, sg.Sites*k
		sp.Sites, sp.DieSize = &sg, sp.DieSize*k
	}
	return sp
}

// jitterRows returns a copy of a row design whose cells inside a
// seed-chosen square patch of about 2 % of the windows move one site
// left or right where the row leaves a free site to each neighbour. It
// is the row-design counterpart of synth.PerturbECO, which drops the
// site lattice.
func jitterRows(lay *layout.Layout, seed int64) (*layout.Layout, error) {
	g, err := lay.Grid()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	side := min(g.NX, g.NY, max(1, int(math.Round(math.Sqrt(0.02*float64(g.NumWindows()))))))
	i0, j0 := rng.Intn(g.NX-side+1), rng.Intn(g.NY-side+1)
	lo, hi := g.Window(i0, j0), g.Window(i0+side-1, j0+side-1)
	patch := geom.R(lo.XL, lo.YL, hi.XH, hi.YH)
	site := lay.Sites.SiteW
	src := lay.Layers[0].Wires // row by row, left to right
	wires := append([]geom.Rect(nil), src...)
	for i, w := range src {
		if !patch.ContainsRect(w) {
			continue
		}
		dx := site
		if rng.Intn(2) == 0 {
			dx = -site
		}
		m := w.Translate(dx, 0)
		if !lay.Die.ContainsRect(m) ||
			(i > 0 && wires[i-1].YL == w.YL && m.XL < wires[i-1].XH+site) ||
			(i+1 < len(src) && src[i+1].YL == w.YL && m.XH > src[i+1].XL-site) {
			continue
		}
		wires[i] = m
	}
	return &layout.Layout{
		Name: lay.Name, Die: lay.Die, Window: lay.Window, Rules: lay.Rules, Sites: lay.Sites,
		Layers: []*layout.Layer{{Wires: wires}},
	}, nil
}

// runSiteRows is the site-rows workload: every job reads the DEF deck,
// places filler cells with one site of padding and writes the DEF back.
func runSiteRows(ctx context.Context, c *config) (*outcome, error) {
	o := newOutcome()
	sp := rowSpec(c)
	opts := dummyfill.DefaultOptions()
	opts.Mode, opts.SitePad = dummyfill.ModeSite, 1
	job := fileJob{
		in:     filepath.Join(c.dir, "rows.def"),
		out:    filepath.Join(c.dir, "rows-out.def"),
		format: "def",
		ingest: dummyfill.IngestOptions{Window: sp.Window},
		opts:   opts,
	}
	err := timeSetup(c, o, func() error {
		rows, err := synth.Generate(sp)
		if err != nil {
			return err
		}
		lay, err := jitterRows(rows, subSeed(c.seed, "rows"))
		if err != nil {
			return err
		}
		return writeFile(job.in, func(w *bufio.Writer) error { return dummyfill.WriteDEFLayout(w, lay, nil) })
	})
	if err != nil {
		return nil, err
	}
	return o, runBatch(ctx, c, o, batch{job: &job})
}
