package main

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dummyfill/internal/dlp"
)

// Span names. Every span is recorded by the benchmark around a call into
// a layer's public entry point; the engine itself is not instrumented.
const (
	spanJob       = "job"
	spanIngest    = "ingest.read"
	spanFillNew   = "fill.new"
	spanFillRun   = "fill.run"
	spanWrite     = "layio.write"
	spanSolve     = "dlp.solve"
	spanRequest   = "serve.request"
	spanServeStep = "serve.step"
)

// span is one timed call. Parent is the id of the span that caused it (0
// for a root) and run groups the spans of one traced job or serve step.
// Vars, Cons and Failed describe dlp.solve spans only.
type span struct {
	ID, Parent int64
	Run        int
	Name       string
	Start, End time.Duration // on the recorder clock
	Tid        int
	Vars, Cons int
	Failed     bool
}

func (s span) dur() time.Duration { return s.End - s.Start }

// spanBuf holds the spans of one goroutine. Only its owner appends, so
// recording takes no lock; buffers are merged once, after the traced
// work has ended.
type spanBuf struct {
	tid   int
	spans []span
}

func (b *spanBuf) add(s span) {
	s.Tid = b.tid
	b.spans = append(b.spans, s)
}

// recorder owns the span buffers of a traced run and its clock.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	runs  atomic.Int64
	mu    sync.Mutex
	bufs  []*spanBuf //filllint:guard mu
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }
func (r *recorder) newID() int64       { return r.ids.Add(1) }
func (r *recorder) newRun() int        { return int(r.runs.Add(1)) }

// newBuf registers a buffer for one goroutine.
func (r *recorder) newBuf() *spanBuf {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := &spanBuf{tid: len(r.bufs) + 1}
	r.bufs = append(r.bufs, b)
	return b
}

// spans merges every buffer, ordered by start time. Call it only after
// the goroutines that own the buffers have finished recording.
func (r *recorder) spans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, b := range r.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// runSpans returns the spans of one run.
func runSpans(all []span, run int) []span {
	var out []span
	for _, s := range all {
		if s.Run == run {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is the duration of parent minus the union of the intervals its
// children cover inside it. Children running in parallel overlap, so
// their union, not their sum, is subtracted.
func selfTime(parent span, children []span) time.Duration {
	ivs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Parent == parent.ID {
			ivs = append(ivs, interval{c.Start, c.End})
		}
	}
	return parent.dur() - unionWithin(ivs, parent.Start, parent.End)
}

// tracedSolverFactory returns an Options.NewSolver that wraps a fresh
// warm SSP solver per worker in a timing shim. Each worker's shim owns
// its own span buffer, so the engine's workers share no lock through it.
// The factory's symbol is part of the fill-cache fingerprint, so a
// traced run never reads entries written by an untraced one.
func tracedSolverFactory(rec *recorder, run int, parent int64) func() dlp.PSolver {
	return func() dlp.PSolver {
		inner := dlp.NewWarmSSP()
		buf := rec.newBuf()
		return func(ctx context.Context, p *dlp.Problem) ([]int64, int64, error) {
			start := rec.now()
			x, obj, err := inner(ctx, p)
			buf.add(span{
				ID: rec.newID(), Parent: parent, Run: run, Name: spanSolve,
				Start: start, End: rec.now(),
				Vars: p.N(), Cons: len(p.Cons), Failed: err != nil,
			})
			return x, obj, err
		}
	}
}

// writeChromeTrace writes spans as Chrome trace-event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "run": s.Run}
		if s.Name == spanSolve {
			args["vars"], args["constraints"], args["failed"] = s.Vars, s.Cons, s.Failed
		}
		evs[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Tid, Args: args,
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
