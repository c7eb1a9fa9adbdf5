// Package serve is the fill-as-a-service front end: an HTTP/JSON +
// raw-stream API over the streaming fill engine, built for failure
// first. Jobs pass a bounded admission queue (load is shed with 429 +
// Retry-After, never buffered unboundedly), run under a per-job deadline
// that maps onto the engine's soft Options.Budget (an overloaded job
// degrades windows instead of failing), and report a Health-derived
// status taxonomy: ok, degraded, aborted, rejected. Repeat submissions
// of the same payload skip the parse via a content-hash layout cache
// with single-flight dedup; ingest is capped by layio.Limits and a body
// size bound. Shutdown drains in-flight jobs under a deadline and
// hard-aborts stragglers via context. /metrics exports Prometheus-style
// counters and histograms from the queue and every job's Health.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dummyfill/internal/faultinject"
	"dummyfill/internal/fill"
	"dummyfill/internal/fillcache"
	"dummyfill/internal/ingest"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
)

// Status is the job outcome taxonomy derived from Result.Health and the
// admission/abort paths.
type Status string

const (
	// StatusOK: the job completed with a fully healthy engine run.
	StatusOK Status = "ok"
	// StatusDegraded: the job completed and the output is complete and
	// DRC-clean, but some windows fell back or degraded (solver
	// fallbacks, budget expiry, recovered panics).
	StatusDegraded Status = "degraded"
	// StatusAborted: the job started but did not complete — client
	// cancellation, hard deadline, drain abort, or an internal fault.
	StatusAborted Status = "aborted"
	// StatusRejected: the job never ran — queue full, draining,
	// oversized or malformed payload, or invalid parameters.
	StatusRejected Status = "rejected"
)

// budgetFraction is the share of a job's remaining deadline granted to
// the engine's soft Options.Budget; the rest is headroom so the run
// degrades windows and still completes before the hard abort.
const budgetFraction = 0.8

// Config tunes a Server. The zero value is usable: every field defaults
// sensibly in New.
type Config struct {
	// Workers is the maximum number of concurrently running jobs
	// (0 = GOMAXPROCS).
	Workers int
	// QueueDepth is how many admitted jobs may wait for a run slot
	// beyond the running ones (0 = 2×Workers). Requests beyond it are
	// shed with 429.
	QueueDepth int
	// DefaultDeadline is the per-job deadline when the request names
	// none (0 = 60s).
	DefaultDeadline time.Duration
	// MaxDeadline clamps client-requested deadlines (0 = 5m).
	MaxDeadline time.Duration
	// MaxBodyBytes caps an ingest payload (0 = 256 MiB).
	MaxBodyBytes int64
	// CacheEntries is the content-hash layout cache capacity
	// (0 = 64; negative disables caching).
	CacheEntries int
	// Rules is the fill rule deck applied to formats that carry no rule
	// metadata (GDSII, OASIS). Required for those formats: a zero Rules
	// rejects binary payloads at ingest validation.
	Rules layout.Rules
	// Options is the base engine configuration jobs start from
	// (zero Lambda = fill.DefaultOptions()). Per-request parameters
	// (workers, lambda, deadline) override per job.
	Options fill.Options
	// FillCache is the persistent per-window fill cache — the second
	// caching tier under the layout LRU. The layout cache short-circuits
	// byte-identical requests; the fill cache accelerates *similar* ones
	// (an edited layout resubmitted after an ECO) by replaying every
	// unchanged window from disk. nil disables the tier.
	FillCache *fillcache.Cache
}

// withDefaults resolves the zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 60 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 64
	}
	if c.Options.Lambda == 0 {
		c.Options = fill.DefaultOptions()
	}
	return c
}

// Server is the fill service. It implements http.Handler; route every
// method through it (it multiplexes /fill, /metrics, /healthz, /stats).
type Server struct {
	cfg   Config
	adm   *admission
	cache *layoutCache
	met   *metrics

	// hardCtx aborts in-flight jobs when the drain deadline expires.
	hardCtx    context.Context
	hardCancel context.CancelFunc
	draining   atomic.Bool
	// drainMu orders job registration against the draining flip so
	// jobs.Add never races jobs.Wait: handlers register under RLock,
	// Shutdown flips the flag under Lock before waiting. The lockguard
	// annotation makes the ordering checkable; Shutdown's Wait is the one
	// deliberate (and documented) exception.
	drainMu sync.RWMutex
	jobs    sync.WaitGroup //filllint:guard drainMu

	// inject is the chaos hook at the serving layer's own fault sites
	// (nil injects nothing). Engine-level sites flow through each job's
	// Options.Inject.
	inject *faultinject.Injector

	// outBufs pools per-job output buffers; gets/puts are balanced on
	// every exit path (asserted by the chaos suite).
	outBufs          sync.Pool
	bufGets, bufPuts atomic.Int64
}

// New constructs a Server from cfg (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		adm:   newAdmission(cfg.Workers, cfg.QueueDepth),
		cache: newLayoutCache(cfg.CacheEntries),
		met:   newMetrics(),
	}
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	s.outBufs.New = func() any { return new(bytes.Buffer) }
	s.met.gauge("fillserved_queue_depth", func() float64 { return float64(s.adm.queued.Load()) })
	s.met.gauge("fillserved_jobs_running", func() float64 { return float64(s.adm.inFlight.Load()) })
	s.met.gauge("fillserved_cache_entries", func() float64 { return float64(s.cache.len()) })
	// Touch the series the dashboards key on so a fresh scrape shows them
	// at zero instead of absent.
	for _, st := range []Status{StatusOK, StatusDegraded, StatusAborted, StatusRejected} {
		s.met.counter("fillserved_jobs_total", `status="`+string(st)+`"`)
	}
	s.met.hist("fillserved_queue_wait_seconds", defaultSecondsBuckets)
	s.met.hist("fillserved_job_seconds", defaultSecondsBuckets)
	return s
}

// SetInjector installs the serving-layer chaos injector (sites
// SiteServeIngest/SiteServePanic/SiteServeEmit, keyed by payload content
// hash). Call before serving traffic.
func (s *Server) SetInjector(in *faultinject.Injector) { s.inject = in }

// PoolBalance reports how many pooled output buffers were acquired and
// released — equal after every job has finished, or scratch leaked.
func (s *Server) PoolBalance() (gets, puts int64) {
	return s.bufGets.Load(), s.bufPuts.Load()
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// beginJob registers a job with the drain tracker unless draining has
// begun. On true the caller must s.jobs.Done() when the job finishes.
func (s *Server) beginJob() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return false
	}
	s.jobs.Add(1)
	return true
}

// Shutdown drains the server: new jobs are rejected with 503 while
// in-flight ones run to completion. If ctx ends first, the stragglers
// are hard-aborted through their contexts and Shutdown returns ctx's
// error once they have unwound.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		//filllint:allow lockguard -- Wait must not hold drainMu (beginJob's RLock would deadlock); the Lock/Unlock flip above already ordered every Add before this Wait
		s.jobs.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.hardCancel()
		<-done
		return ctx.Err()
	}
}

// errorReply is the JSON body of every non-200 response.
type errorReply struct {
	Status        Status `json:"status"`
	Error         string `json:"error"`
	RetryAfterSec int    `json:"retry_after_sec,omitempty"`
}

// ServeHTTP multiplexes the service endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/fill" && r.Method == http.MethodPost:
		s.handleFill(w, r)
	case r.URL.Path == "/metrics" && r.Method == http.MethodGet:
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.met.write(w)
	case r.URL.Path == "/healthz" && r.Method == http.MethodGet:
		s.writeJSON(w, http.StatusOK, map[string]any{
			"status":   map[bool]string{false: "ok", true: "draining"}[s.draining.Load()],
			"queued":   s.adm.queued.Load(),
			"running":  s.adm.inFlight.Load(),
			"capacity": s.cfg.Workers,
		})
	case r.URL.Path == "/stats" && r.Method == http.MethodGet:
		gets, puts := s.PoolBalance()
		s.writeJSON(w, http.StatusOK, map[string]any{
			"draining":      s.draining.Load(),
			"queued":        s.adm.queued.Load(),
			"running":       s.adm.inFlight.Load(),
			"workers":       s.cfg.Workers,
			"queue_depth":   s.cfg.QueueDepth,
			"cache_entries": s.cache.len(),
			"buf_gets":      gets,
			"buf_puts":      puts,
		})
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

// jobParams are the per-request engine knobs parsed from the query.
type jobParams struct {
	format, oformat string
	deadline        time.Duration
	workers         int
	lambda          float64
	window          int64
}

// parseParams validates the request's query parameters. Zero/negative
// deadlines are rejected outright — a disabled soft deadline must be the
// server's explicit choice (DefaultDeadline), never a silent client typo.
func (s *Server) parseParams(r *http.Request) (jobParams, error) {
	q := r.URL.Query()
	p := jobParams{
		format:   q.Get("format"),
		oformat:  q.Get("oformat"),
		deadline: s.cfg.DefaultDeadline,
	}
	if p.oformat == "" {
		p.oformat = "gds"
	}
	if v := q.Get("deadline"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return p, fmt.Errorf("bad deadline %q: %v", v, err)
		}
		if d <= 0 {
			return p, fmt.Errorf("deadline must be positive, got %v", d)
		}
		p.deadline = d
	}
	if p.deadline > s.cfg.MaxDeadline {
		p.deadline = s.cfg.MaxDeadline
	}
	var err error
	if v := q.Get("workers"); v != "" {
		if p.workers, err = strconv.Atoi(v); err != nil || p.workers < 0 {
			return p, fmt.Errorf("bad workers %q", v)
		}
		if max := runtime.GOMAXPROCS(0); p.workers > max {
			p.workers = max
		}
	}
	if v := q.Get("lambda"); v != "" {
		if p.lambda, err = strconv.ParseFloat(v, 64); err != nil || !(p.lambda >= 1) || math.IsInf(p.lambda, 1) {
			return p, fmt.Errorf("bad lambda %q (must be finite and >= 1)", v)
		}
	}
	if v := q.Get("window"); v != "" {
		if p.window, err = strconv.ParseInt(v, 10, 64); err != nil || p.window < 0 {
			return p, fmt.Errorf("bad window %q", v)
		}
	}
	return p, nil
}

// handleFill runs one fill job end to end: bounded body read, admission,
// cached ingest, engine run under the mapped budget, buffered response.
func (s *Server) handleFill(w http.ResponseWriter, r *http.Request) {
	arrival := time.Now()
	if s.draining.Load() {
		s.reject(w, http.StatusServiceUnavailable, "draining", "server is draining", int(s.adm.retryAfter().Seconds()))
		return
	}
	p, err := s.parseParams(r)
	if err != nil {
		s.reject(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	ofmt, err := layio.Lookup(p.oformat)
	if err != nil {
		s.reject(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}

	// Bounded body read, before admission: a slow or oversized client
	// costs its own handler goroutine, never a run slot. The full payload
	// is needed anyway for content-hash caching.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.reject(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("payload exceeds %d bytes", tooBig.Limit), 0)
			return
		}
		s.noteAborted("client", arrival)
		return // client went away mid-upload; nothing to write
	}

	// Admission: wait for a run slot under the job's own deadline, shed
	// immediately when the queue is at capacity.
	actx, acancel := context.WithTimeout(r.Context(), p.deadline)
	defer acancel()
	wait, err := s.adm.acquire(actx)
	if err != nil {
		switch {
		case errors.Is(err, errQueueFull):
			s.reject(w, http.StatusTooManyRequests, "queue_full", "job queue full", int(s.adm.retryAfter().Seconds()))
		case r.Context().Err() != nil:
			s.noteAborted("client", arrival)
		default: // deadline exhausted while queued
			s.reject(w, http.StatusTooManyRequests, "deadline", "deadline exhausted while queued", int(s.adm.retryAfter().Seconds()))
		}
		return
	}
	s.met.hist("fillserved_queue_wait_seconds", defaultSecondsBuckets).observe(wait.Seconds())
	jobStart := time.Now()
	released := false
	release := func() {
		if !released {
			released = true
			s.adm.release(time.Since(jobStart))
		}
	}
	defer release()
	if !s.beginJob() {
		s.reject(w, http.StatusServiceUnavailable, "draining", "server is draining", int(s.adm.retryAfter().Seconds()))
		return
	}
	defer s.jobs.Done()

	remaining := p.deadline - time.Since(arrival)
	if remaining <= 0 {
		s.reject(w, http.StatusTooManyRequests, "deadline", "deadline exhausted while queued", int(s.adm.retryAfter().Seconds()))
		return
	}

	// Content-hash ingest with single-flight dedup. The key covers the
	// payload and everything that shapes the parsed layout.
	sum := sha256.Sum256(body)
	jobKey := binary.BigEndian.Uint64(sum[:8])
	cacheKey := fmt.Sprintf("%x|%s|%d|%v", sum, p.format, p.window, s.cfg.Rules)
	lay, hit, err := s.cache.get(cacheKey, func() (*layout.Layout, error) {
		if ierr := s.inject.Fail(faultinject.SiteServeIngest, jobKey); ierr != nil {
			return nil, ierr
		}
		return s.parseLayout(body, p)
	})
	if err != nil {
		s.reject(w, http.StatusBadRequest, "malformed", "ingest: "+err.Error(), 0)
		return
	}
	if hit {
		s.met.add("fillserved_cache_total", `event="hit"`, 1)
	} else {
		s.met.add("fillserved_cache_total", `event="miss"`, 1)
	}

	// Run the engine under the remaining deadline. The soft budget is a
	// fraction of it, so an overloaded job degrades windows and still
	// finishes before the hard abort; the drain deadline hard-aborts too.
	jctx, jcancel := context.WithTimeout(r.Context(), remaining)
	defer jcancel()
	stopAbort := context.AfterFunc(s.hardCtx, jcancel)
	defer stopAbort()

	opts := s.cfg.Options
	opts.Workers = p.workers
	if p.lambda > 0 {
		opts.Lambda = p.lambda
	}
	opts.Budget = time.Duration(float64(remaining) * budgetFraction)
	opts.Cache = s.cfg.FillCache

	buf := s.getBuf()
	res, fills, err := s.runJob(jctx, lay, opts, ofmt, jobKey, buf)
	if err != nil {
		s.putBuf(buf)
		switch {
		case r.Context().Err() != nil:
			s.noteAborted("client", arrival)
		case s.hardCtx.Err() != nil:
			s.noteAborted("drain", arrival)
			s.writeJSON(w, http.StatusServiceUnavailable, errorReply{Status: StatusAborted, Error: "job aborted: drain deadline exceeded"})
			return
		case jctx.Err() != nil:
			s.noteAborted("deadline", arrival)
			s.reject(w, http.StatusServiceUnavailable, "deadline", "hard deadline exceeded", int(s.adm.retryAfter().Seconds()))
			return
		default:
			s.noteAborted("internal", arrival)
			s.writeJSON(w, http.StatusInternalServerError, errorReply{Status: StatusAborted, Error: err.Error()})
			return
		}
		return
	}

	// The engine is done: free the run slot before streaming the body so
	// a slow reader costs only its own handler goroutine, never capacity.
	release()

	status := StatusOK
	if !res.Health.Healthy() {
		status = StatusDegraded
	}
	s.noteHealth(res.Health)
	s.met.add("fillserved_jobs_total", `status="`+string(status)+`"`, 1)
	s.met.hist("fillserved_job_seconds", defaultSecondsBuckets).observe(time.Since(jobStart).Seconds())

	h := w.Header()
	h.Set("Content-Type", contentType(ofmt.Name))
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	h.Set("X-Fill-Status", string(status))
	h.Set("X-Fill-Health", res.Health.String())
	h.Set("X-Fill-Windows", strconv.Itoa(res.Windows))
	h.Set("X-Fill-Fills", strconv.Itoa(fills))
	h.Set("X-Fill-Cache", map[bool]string{true: "hit", false: "miss"}[hit])
	if s.cfg.FillCache != nil {
		h.Set("X-Fill-Window-Cache", fmt.Sprintf("hits=%d misses=%d stale=%d errors=%d",
			res.Health.CacheHits, res.Health.CacheMisses, res.Health.CacheStale, res.Health.CacheErrors))
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes()) // client-side write errors are the client's problem
	s.putBuf(buf)
}

// runJob executes one engine run with per-job panic isolation, emitting
// the solution deck (fills only, struct FILL, header from the layout —
// byte-identical to offline `fillgen -stream` output for the same layout
// and options) into buf.
func (s *Server) runJob(ctx context.Context, lay *layout.Layout, opts fill.Options, ofmt layio.Format, jobKey uint64, buf *bytes.Buffer) (res *fill.Result, fills int, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, fills, err = nil, 0, fmt.Errorf("serve: job panicked: %v", r)
		}
	}()
	if s.inject.Hit(faultinject.SiteServePanic, jobKey) {
		panic("faultinject: injected job panic")
	}
	eng, err := fill.New(lay, opts)
	if err != nil {
		return nil, 0, err
	}
	deck, err := layio.OpenDeck(ctx, buf, ofmt, layio.SolutionDeck, lay)
	if err != nil {
		return nil, 0, err
	}
	emitFault := s.inject.Hit(faultinject.SiteServeEmit, jobKey)
	windows := 0
	res, err = eng.RunStream(ctx, fill.SinkFunc(func(k int, fs []layout.Fill) error {
		windows++
		if emitFault && windows == 2 {
			return fmt.Errorf("%w: %s", faultinject.ErrInjected, faultinject.SiteServeEmit)
		}
		return deck.EmitWindow(k, fs)
	}))
	if err != nil {
		return nil, 0, err
	}
	if err := deck.Close(); err != nil {
		return nil, 0, err
	}
	return res, deck.Fills(), nil
}

// parseLayout ingests a payload under the format's default limits.
func (s *Server) parseLayout(body []byte, p jobParams) (*layout.Layout, error) {
	f, src, err := layio.Resolve(bytes.NewReader(body), p.format)
	if err != nil {
		return nil, err
	}
	iopts := ingest.Options{Window: p.window}
	if !f.CarriesMeta {
		iopts.Rules = s.cfg.Rules
	}
	return ingest.FromShapes(f.NewShapeReader(src, layio.DefaultLimits()), iopts)
}

// getBuf/putBuf wrap the output-buffer pool with balance accounting; the
// pairing spans the wrappers, with PoolBalance as the runtime assertion.
func (s *Server) getBuf() *bytes.Buffer {
	s.bufGets.Add(1)
	//filllint:allow poolpair -- paired with putBuf across the job lifecycle; the chaos suite asserts bufGets == bufPuts
	buf := s.outBufs.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func (s *Server) putBuf(b *bytes.Buffer) {
	s.bufPuts.Add(1)
	s.outBufs.Put(b)
}

// reject writes a JSON rejection and accounts it.
func (s *Server) reject(w http.ResponseWriter, code int, reason, msg string, retrySec int) {
	s.met.add("fillserved_jobs_total", `status="rejected"`, 1)
	s.met.add("fillserved_rejects_total", `reason="`+reason+`"`, 1)
	if retrySec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retrySec))
	}
	s.writeJSON(w, code, errorReply{Status: StatusRejected, Error: msg, RetryAfterSec: retrySec})
}

// noteAborted accounts a job that started (or was uploading) and did not
// complete.
func (s *Server) noteAborted(cause string, arrival time.Time) {
	s.met.add("fillserved_jobs_total", `status="aborted"`, 1)
	s.met.add("fillserved_aborts_total", `cause="`+cause+`"`, 1)
	s.met.hist("fillserved_job_seconds", defaultSecondsBuckets).observe(time.Since(arrival).Seconds())
}

// noteHealth folds one job's Health into the window-level counters — the
// same vocabulary benchjson rows report (degraded windows, fallbacks).
func (s *Server) noteHealth(h fill.Health) {
	s.met.add("fillserved_windows_total", `kind="sized"`, int64(h.Sized))
	s.met.add("fillserved_windows_total", `kind="skipped"`, int64(h.Skipped))
	s.met.add("fillserved_windows_total", `kind="degraded"`, int64(h.Degraded))
	s.met.add("fillserved_windows_total", `kind="recovered"`, int64(h.Recovered))
	s.met.add("fillserved_windows_total", `kind="fallback_cold"`, int64(h.FallbackCold))
	s.met.add("fillserved_windows_total", `kind="fallback_simplex"`, int64(h.FallbackSimplex))
	if h.CacheHits+h.CacheMisses+h.CacheStale+h.CacheErrors > 0 {
		s.met.add("fillserved_fill_cache_windows_total", `result="hit"`, int64(h.CacheHits))
		s.met.add("fillserved_fill_cache_windows_total", `result="miss"`, int64(h.CacheMisses))
		s.met.add("fillserved_fill_cache_windows_total", `result="stale"`, int64(h.CacheStale))
		s.met.add("fillserved_fill_cache_windows_total", `result="error"`, int64(h.CacheErrors))
	}
	if h.BudgetExceeded {
		s.met.add("fillserved_budget_exceeded_total", "", 1)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// contentType maps an output format name to its media type.
func contentType(format string) string {
	if format == "text" {
		return "text/plain; charset=utf-8"
	}
	return "application/octet-stream"
}
