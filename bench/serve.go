package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	dummyfill "dummyfill"
	"dummyfill/internal/dlp"
	"dummyfill/internal/fill"
	"dummyfill/internal/serve"
	"dummyfill/internal/synth"
)

const (
	// serveRate is the open-loop arrival rate. At it the two-core host
	// runs about half busy, below the knee where queueing makes latency
	// unsteady from run to run.
	serveRate = 2.0
	// warmupRequests are sent at serveRate before the measured step (one
	// at smoke-test scale).
	warmupRequests = 5
	// recentPayloads is how far back a resubmission reaches: it sends
	// one of the last recentPayloads distinct decks byte for byte, which
	// hits the server's layout cache.
	recentPayloads = 32
)

// servePlan is the generated traffic: the distinct decks and, per
// request, which deck it sends.
type servePlan struct {
	spec     synth.Spec
	payloads [][]byte
	seq      []int
}

// newServePlan draws n requests from the run seed. Every fresh payload is
// a 2 % ECO edit of design s with its own seed.
func newServePlan(c *config, n int) (*servePlan, error) {
	sp := synth.DesignS()
	if c.toy {
		sp = synth.DesignTiny()
	}
	base, err := synth.Generate(sp)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(c.seed, "serve")))
	// After the first request, one of every two is a resubmission at a
	// seed-chosen place and the other a fresh ECO variant, which misses.
	// Every step then holds half resubmissions, give or take one, and
	// every run as many distinct decks in the server's layout cache,
	// which sets its heap.
	resubmit := make([]bool, n)
	for i := 1; i+1 < n; i += 2 {
		resubmit[i+rng.Intn(2)] = true
	}
	p := &servePlan{spec: sp}
	for i := 0; i < n; i++ {
		if resubmit[i] {
			lo := max(0, len(p.payloads)-recentPayloads)
			p.seq = append(p.seq, lo+rng.Intn(len(p.payloads)-lo))
			continue
		}
		eco, _, err := synth.PerturbECO(base, 0.02, rng.Int63())
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := dummyfill.WriteGDS(&buf, eco, nil); err != nil {
			return nil, err
		}
		p.seq = append(p.seq, len(p.payloads))
		p.payloads = append(p.payloads, buf.Bytes())
	}
	return p, nil
}

// reqResult is one request of an open-loop step. Times are offsets from
// the step's start; a request is due at a fixed point of the schedule
// whether or not the generator or a connection is ready then.
type reqResult struct {
	payload                  int
	due, sent, gotConn, done time.Duration
	status                   int
	err                      error
	size                     int // body bytes
	sum                      [32]byte
	layoutHit                bool
	// body is kept for the first request of a step only, the one whose
	// deck is decoded and checked, so that retained bodies do not inflate
	// the peak heap the step measures.
	keepBody bool
	body     []byte
}

// latency is the time from when the request was due to its last body
// byte, so a stall also charges the requests queued behind it.
func (r reqResult) latency() time.Duration { return r.done - r.due }

func (r reqResult) ok() bool { return r.err == nil && r.status == http.StatusOK }

// dueAt is request i's place in an open-loop schedule at rate req/s.
func dueAt(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// stepSummary condenses one step's requests. Connection waits are known
// on traced steps only.
type stepSummary struct {
	latencies, connWaits []float64 // seconds, successful requests only
	lateMax              float64   // worst generator lateness, seconds
	failed               int
}

func summarize(rs []reqResult) stepSummary {
	var s stepSummary
	for _, r := range rs {
		s.lateMax = math.Max(s.lateMax, (r.sent - r.due).Seconds())
		if !r.ok() {
			s.failed++
			continue
		}
		s.latencies = append(s.latencies, r.latency().Seconds())
		s.connWaits = append(s.connWaits, (r.gotConn - r.due).Seconds())
	}
	return s
}

// loadGen sends the plan's requests to one server.
type loadGen struct {
	url    string
	client *http.Client
	plan   *servePlan
	rec    *recorder // set for a traced step
}

// step sends the requests seq[from:to] on an open-loop schedule at rate
// and waits for every response. It returns when the schedule started,
// which the requests' times are offsets from.
func (g *loadGen) step(ctx context.Context, from, to int, rate float64, run int) (time.Time, []reqResult) {
	rs := make([]reqResult, to-from)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range rs {
		due := dueAt(i, rate)
		if wait := due - time.Since(start); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
			case <-t.C:
			}
		}
		rs[i] = reqResult{payload: g.plan.seq[from+i], due: due, sent: time.Since(start), keepBody: i == 0}
		wg.Add(1)
		go func(r *reqResult) {
			defer wg.Done()
			g.send(ctx, start, r, run)
		}(&rs[i])
	}
	wg.Wait()
	return start, rs
}

// send posts one deck and reads the whole response.
func (g *loadGen) send(ctx context.Context, start time.Time, r *reqResult, run int) {
	if g.rec != nil {
		buf := g.rec.newBuf()
		t0 := g.rec.now()
		defer func() {
			buf.add(span{ID: g.rec.newID(), Run: run, Name: spanRequest, Start: t0 - (r.sent - r.due), End: g.rec.now()})
		}()
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn: func(httptrace.GotConnInfo) { r.gotConn = time.Since(start) },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url+"/fill?format=gds", bytes.NewReader(g.plan.payloads[r.payload]))
	if err != nil {
		r.err = err
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		r.err = err
		r.done = time.Since(start)
		return
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	r.layoutHit = resp.Header.Get("X-Fill-Cache") == "hit"
	body, err := io.ReadAll(resp.Body)
	r.done = time.Since(start)
	r.err = err
	r.size = len(body)
	r.sum = sha256.Sum256(body)
	if r.keepBody {
		r.body = body
	}
}

// scrape reads the server's /metrics.
func (g *loadGen) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// parseProm parses the Prometheus text exposition format into a map from
// series (name plus any labels, as exposed) to value.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// histMean is the mean of the histogram samples observed between two
// scrapes, 0 when there were none.
func histMean(before, after map[string]float64, name string) float64 {
	n := after[name+"_count"] - before[name+"_count"]
	if n == 0 {
		return 0
	}
	return (after[name+"_sum"] - before[name+"_sum"]) / n
}

// runServe is the serve-s workload: an in-process fill server behind a
// loopback listener takes an open loop of GDS decks from one client
// process with at most GOMAXPROCS connections.
func runServe(ctx context.Context, c *config) (*outcome, error) {
	o := newOutcome()
	warmup := warmupRequests
	if c.toy {
		warmup = 1
	}
	perStep := int(math.Ceil(c.seconds.Seconds() * serveRate))
	nSteps := 1
	if c.trace {
		// The traced step follows an untraced one of the same length, so
		// the two give the tracing overhead.
		perStep, nSteps = max(perStep/2, 1), 2
	}
	var plan *servePlan
	err := timeSetup(c, o, func() error {
		var err error
		plan, err = newServePlan(c, warmup+nSteps*perStep)
		return err
	})
	if err != nil {
		return nil, err
	}

	opts := dummyfill.DefaultOptions()
	// With tracing, the server's solvers go through a shim that records
	// only while a traced step runs.
	var active atomic.Pointer[func() dlp.PSolver]
	if c.trace {
		opts.NewSolver = func() dlp.PSolver {
			if f := active.Load(); f != nil {
				return (*f)()
			}
			return dlp.NewWarmSSP()
		}
	}
	srv := serve.New(serve.Config{Rules: plan.spec.Rules, Options: opts})
	ts := httptest.NewServer(srv)
	conns := runtime.GOMAXPROCS(0)
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	g := &loadGen{url: ts.URL, client: &http.Client{Transport: tr}, plan: plan}
	defer func() {
		tr.CloseIdleConnections()
		ts.Close()
	}()

	// runStep runs the open-loop step of requests from..from+perStep and
	// records its metrics: end-to-end ones untraced, per-layer ones traced.
	runStep := func(from int, traced bool) (stepSummary, []reqResult, error) {
		run := 0
		var stepSpan span
		if traced {
			run = c.rec.newRun()
			stepSpan = span{ID: c.rec.newID(), Run: run, Name: spanServeStep, Start: c.rec.now()}
			f := tracedSolverFactory(c.rec, run, stepSpan.ID)
			active.Store(&f)
			g.rec = c.rec
		}
		before, err := g.scrape(ctx)
		if err != nil {
			return stepSummary{}, nil, err
		}
		rt0, cpu0 := readRuntimeCounters(), cpuTime()
		hs := startHeapSampler()
		start, rs := g.step(ctx, from, from+perStep, serveRate, run)
		heap := hs.stop()
		cpu, rt := cpuTime()-cpu0, readRuntimeCounters().sub(rt0)
		after, err := g.scrape(ctx)
		if err != nil {
			return stepSummary{}, nil, err
		}
		sum := summarize(rs)
		o.attempted += len(rs)
		o.failed += sum.failed
		if len(sum.latencies) == 0 {
			return sum, rs, fmt.Errorf("no request of the step succeeded")
		}
		if !traced {
			o.endToEnd["latency_s"] = median(sum.latencies)
			o.endToEnd["cpu_s"] = cpu.Seconds() / float64(len(sum.latencies))
			// Jobs overlap, so each request's peak is the largest heap
			// sample while it was in flight.
			var peaks, sizes []float64
			for _, r := range rs {
				if r.ok() {
					peaks = append(peaks, peakMiB(heap, start.Add(r.due), start.Add(r.done)))
					sizes = append(sizes, float64(r.size)/mib)
				}
			}
			o.endToEnd["peak_heap_mib"] = median(peaks)
			// About one fresh deck in five shifts a planned target and
			// comes back with fewer fills, so a single body's size depends
			// on the seed more than the median over the step does.
			o.endToEnd["out_mib"] = median(sizes)
			o.raw["latency_s"], o.raw["peak_heap_mib"], o.raw["out_mib"] = sum.latencies, peaks, sizes
			for _, k := range []string{"latency_s", "cpu_s", "peak_heap_mib", "out_mib"} {
				o.samples[k] = len(sum.latencies)
			}
			return sum, rs, nil
		}
		active.Store(nil)
		g.rec = nil
		stepSpan.End = c.rec.now()
		buf := c.rec.newBuf()
		buf.add(stepSpan)
		spans := runSpans(c.rec.spans(), run)
		m := o.perLayer
		p, ok := tailPercentile(len(sum.latencies))
		if !ok {
			p = 100
		}
		m["serve.requests"] = float64(len(rs))
		m["serve.tail_pct"] = float64(p)
		m["serve.latency_tail_s"] = nearestRank(sum.latencies, float64(p))
		m["serve.conn_wait_tail_s"] = nearestRank(sum.connWaits, float64(p))
		m["serve.gen_late_max_s"] = sum.lateMax
		m["serve.queue_wait_mean_s"] = histMean(before, after, "fillserved_queue_wait_seconds")
		m["serve.job_mean_s"] = histMean(before, after, "fillserved_job_seconds")
		hits := after[`fillserved_cache_total{event="hit"}`] - before[`fillserved_cache_total{event="hit"}`]
		misses := after[`fillserved_cache_total{event="miss"}`] - before[`fillserved_cache_total{event="miss"}`]
		if hits+misses > 0 {
			m["serve.layout_cache_hit_ratio"] = hits / (hits + misses)
		}
		addDLPMetrics(m, spans, stepSpan.dur(), runtime.GOMAXPROCS(0))
		n := float64(len(rs))
		m["runtime.alloc_mib"] = float64(rt.allocBytes) / mib / n
		m["runtime.gc_cycles"] = float64(rt.gcCycles) / n
		m["runtime.gc_cpu_s"] = rt.gcCPU / n
		m["trace.spans"] = float64(len(spans))
		return sum, rs, nil
	}

	// Warm-up: untimed, but its responses are checked like the rest.
	_, warmed := g.step(ctx, 0, warmup, serveRate, 0)
	steps := [][]reqResult{warmed}
	untracedSum, measured, err := runStep(warmup, false)
	if err != nil {
		return nil, err
	}
	steps = append(steps, measured)
	if c.trace {
		tracedSum, rs, err := runStep(warmup+perStep, true)
		if err != nil {
			return nil, err
		}
		steps = append(steps, rs)
		o.perLayer["trace.overhead_frac"] = median(tracedSum.latencies)/median(untracedSum.latencies) - 1
	}
	if err := srv.Shutdown(ctx); err != nil {
		return nil, err
	}
	if err := checkServed(o, plan, steps); err != nil {
		return nil, err
	}
	return o, nil
}

// checkServed verifies the responses of every step: all 200 bodies for
// one payload are byte-identical whether the layout cache hit or missed,
// and the body of each step's first request is decoded, DRC-checked and
// scored. The measured step's body gives quality.
func checkServed(o *outcome, plan *servePlan, steps [][]reqResult) error {
	first := map[int][32]byte{}
	hitOK, missOK := 0, 0
	for si, rs := range steps {
		var checked *reqResult
		for i := range rs {
			r := &rs[i]
			if !r.ok() {
				continue
			}
			if r.layoutHit {
				hitOK++
			} else {
				missOK++
			}
			if checked == nil && r.body != nil {
				checked = r
			}
			if want, seen := first[r.payload]; !seen {
				first[r.payload] = r.sum
			} else if r.sum != want {
				o.failf("payload %d: response body differs between submissions", r.payload)
			}
		}
		if checked == nil {
			return fmt.Errorf("the first request of step %d failed", si)
		}
		cr, err := checkServedBody(plan, checked)
		if err != nil {
			return err
		}
		if cr.drc != 0 {
			o.failf("served deck of step %d has %d DRC violations", si, cr.drc)
		}
		o.gates["drc_violations"] += float64(cr.drc)
		if si == 1 {
			o.endToEnd["quality"] = cr.quality
		}
	}
	o.perLayer["check.drc_violations"] = o.gates["drc_violations"]
	o.gates["failed_frac"] = float64(o.failed) / float64(o.attempted)
	o.gates["layout_cache_hits"] = float64(hitOK)
	o.gates["layout_cache_misses"] = float64(missOK)
	return nil
}

// checkServedBody checks one response body against its payload, ingested
// the way the server ingests it.
func checkServedBody(plan *servePlan, r *reqResult) (checkResult, error) {
	lay, err := dummyfill.ReadLayoutFormat(bytes.NewReader(plan.payloads[r.payload]), "gds", dummyfill.IngestOptions{Rules: plan.spec.Rules})
	if err != nil {
		return checkResult{}, err
	}
	return checkDeck(r.body, "gds", lay, fill.Options{})
}
