package fill

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// workerEngine builds an engine over a small layout with the given worker
// count.
func workerEngine(t *testing.T, workers int) *Engine {
	t.Helper()
	opts := DefaultOptions()
	opts.Workers = workers
	e, err := New(gradientLayout(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestParallelForCoversAllTasks checks every index is visited exactly once
// across worker-count edge cases: negative (auto), more workers than
// tasks, single task, and zero tasks.
func TestParallelForCoversAllTasks(t *testing.T) {
	for _, tc := range []struct {
		workers, n int
	}{
		{-3, 17},  // negative → GOMAXPROCS
		{64, 5},   // more workers than tasks
		{4, 1},    // single task
		{4, 0},    // nothing to do
		{1, 9},    // serial path
		{3, 1000}, // many tasks
	} {
		e := workerEngine(t, tc.workers)
		hits := make([]atomic.Int32, tc.n)
		if err := e.parallelFor(context.Background(), tc.n, "test", func(_ context.Context, idx int, _ *scratch) error {
			hits[idx].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d n=%d: %v", tc.workers, tc.n, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d n=%d: task %d ran %d times", tc.workers, tc.n, i, got)
			}
		}
	}
}

// goroutineID returns the calling goroutine's id, parsed from the first
// line of its stack trace ("goroutine 42 [running]:"). Ids are never
// reused within a process.
func goroutineID() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestParallelForWorkerScratch checks the pool's scratch contract: every
// task a worker goroutine runs gets that worker's one scratch, zero-valued
// when its first task starts, and one call hands out at most
// min(Workers, n) distinct scratches.
func TestParallelForWorkerScratch(t *testing.T) {
	for _, tc := range []struct {
		workers, n int
	}{
		{4, 1000}, // many tasks per worker
		{64, 5},   // more workers than tasks
		{1, 9},    // serial path
		{3, 2},    // fewer tasks than workers
	} {
		e := workerEngine(t, tc.workers)
		var mu sync.Mutex
		byWorker := map[uint64]*scratch{}
		seen := map[*scratch]bool{}
		err := e.parallelFor(context.Background(), tc.n, "test", func(_ context.Context, k int, sc *scratch) error {
			id := goroutineID()
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := byWorker[id]; ok && prev != sc {
				return fmt.Errorf("task %d: worker goroutine %d got a second scratch", k, id)
			}
			byWorker[id] = sc
			if !seen[sc] && (sc.cand.batch != nil || sc.key.h != nil || sc.size.solve != nil) {
				return fmt.Errorf("task %d: a worker's scratch is not zero-valued at its first task", k)
			}
			seen[sc] = true
			sc.cand.batch = append(sc.cand.batch, cell{}) // the next task sees it used
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d n=%d: %v", tc.workers, tc.n, err)
		}
		if want := min(tc.workers, tc.n); len(seen) > want || len(byWorker) != len(seen) {
			t.Fatalf("workers=%d n=%d: %d scratches over %d worker goroutines, want one each and at most %d",
				tc.workers, tc.n, len(seen), len(byWorker), want)
		}
	}
}

// TestParallelForPromptCancellation checks that a failing task stops the
// pool promptly: every worker exits after its first error instead of
// draining the queue, so the number of started tasks is bounded by the
// worker count, not the task count.
func TestParallelForPromptCancellation(t *testing.T) {
	const workers, n = 4, 10000
	e := workerEngine(t, workers)
	boom := errors.New("boom")
	var started atomic.Int32
	err := e.parallelFor(context.Background(), n, "test", func(_ context.Context, idx int, _ *scratch) error {
		started.Add(1)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want injected error, got %v", err)
	}
	if got := started.Load(); got > workers {
		t.Fatalf("%d tasks started after errors; want <= %d (prompt cancellation)", got, workers)
	}
}

// TestParallelForReturnsFirstError checks an error from a late task is
// still surfaced when earlier tasks succeed.
func TestParallelForReturnsFirstError(t *testing.T) {
	e := workerEngine(t, 3)
	boom := errors.New("late failure")
	err := e.parallelFor(context.Background(), 100, "test", func(_ context.Context, idx int, _ *scratch) error {
		if idx == 99 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want injected error, got %v", err)
	}
}

// TestParallelForCancelsInFlightSiblings checks that a worker error
// reaches siblings that are already inside fn: they observe ctx.Done()
// immediately instead of running their task to completion, so the pool
// drains in bounded time. Without prompt in-flight cancellation this test
// takes ~(n/workers)×5s; with it, milliseconds.
func TestParallelForCancelsInFlightSiblings(t *testing.T) {
	const workers, n = 4, 100
	e := workerEngine(t, workers)
	boom := errors.New("window 0 failed")
	var started, cancelled atomic.Int32
	begin := time.Now()
	err := e.parallelFor(context.Background(), n, "test", func(ctx context.Context, idx int, _ *scratch) error {
		started.Add(1)
		if idx == 0 {
			return boom
		}
		select {
		case <-ctx.Done():
			cancelled.Add(1)
			return ctx.Err()
		case <-time.After(5 * time.Second):
			return nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want the worker error, got %v", err)
	}
	if elapsed := time.Since(begin); elapsed > 2*time.Second {
		t.Fatalf("pool drained in %v; in-flight siblings were not cancelled promptly", elapsed)
	}
	if got := started.Load(); got > workers {
		t.Fatalf("%d tasks started; want <= %d after the failure", got, workers)
	}
	if cancelled.Load() == 0 && started.Load() > 1 {
		t.Fatal("no in-flight sibling observed cancellation")
	}
}

// TestParallelForParentCancellation checks the pool returns the parent
// context's error when it is cancelled mid-run and stops claiming tasks.
func TestParallelForParentCancellation(t *testing.T) {
	e := workerEngine(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := e.parallelFor(ctx, 1000, "test", func(ctx context.Context, idx int, _ *scratch) error {
		if ran.Add(1) == 1 {
			cancel()
		}
		<-ctx.Done()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := ran.Load(); got > 4 {
		t.Fatalf("%d tasks ran after cancellation; want <= workers", got)
	}
}

// TestEngineWorkerCountsAgree checks the engine output is identical for
// any Workers setting, including more workers than windows.
func TestEngineWorkerCountsAgree(t *testing.T) {
	lay := gradientLayout()
	var ref []int
	for _, workers := range []int{1, 2, 16, -1} {
		opts := DefaultOptions()
		opts.Workers = workers
		e, err := New(lay, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sig := make([]int, 0, len(res.Solution.Fills)*5)
		for _, f := range res.Solution.Fills {
			sig = append(sig, f.Layer, int(f.Rect.XL), int(f.Rect.YL), int(f.Rect.XH), int(f.Rect.YH))
		}
		if ref == nil {
			ref = sig
			continue
		}
		if len(sig) != len(ref) {
			t.Fatalf("workers=%d: %d fills vs %d", workers, len(sig)/5, len(ref)/5)
		}
		for i := range sig {
			if sig[i] != ref[i] {
				t.Fatalf("workers=%d: fill stream diverges at element %d", workers, i)
			}
		}
	}
}
