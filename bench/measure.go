package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

const mib = 1 << 20

// In-use heap is read from runtime/metrics rather than ReadMemStats,
// which stops the world on every call and would perturb a 5 ms sampler.
const (
	heapObjects = "/memory/classes/heap/objects:bytes"
	heapUnused  = "/memory/classes/heap/unused:bytes"
	heapAllocs  = "/gc/heap/allocs:bytes"
	gcCycles    = "/gc/cycles/total:gc-cycles"
	gcCPU       = "/cpu/classes/gc/total:cpu-seconds"
)

// heapSampler samples the in-use heap every 5 ms between
// startHeapSampler and stop.
type heapSampler struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
	points []heapPoint // owned by the sampling goroutine until wg.Wait returns
}

// heapPoint is one in-use heap sample.
type heapPoint struct {
	at    time.Time
	bytes uint64
}

func startHeapSampler() *heapSampler {
	ctx, cancel := context.WithCancel(context.Background())
	h := &heapSampler{cancel: cancel}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: heapObjects}, {Name: heapUnused}}
		for {
			metrics.Read(s)
			h.points = append(h.points, heapPoint{time.Now(), s[0].Value.Uint64() + s[1].Value.Uint64()})
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the samples.
func (h *heapSampler) stop() []heapPoint {
	h.cancel()
	h.wg.Wait()
	return h.points
}

// peakMiB is the largest sample taken in [from, to], or the last one
// before from when the window is shorter than the sampling period.
func peakMiB(ps []heapPoint, from, to time.Time) float64 {
	var peak uint64
	for i, p := range ps {
		if p.at.After(to) {
			break
		}
		if !p.at.Before(from) || (i+1 < len(ps) && ps[i+1].at.After(from)) {
			peak = max(peak, p.bytes)
		}
	}
	return float64(peak) / mib
}

// runtimeCounters is a snapshot of the Go runtime's cumulative
// allocation and GC counters.
type runtimeCounters struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
}

func readRuntimeCounters() runtimeCounters {
	s := []metrics.Sample{{Name: heapAllocs}, {Name: gcCycles}, {Name: gcCPU}}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
	}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocBytes - o.allocBytes, c.gcCycles - o.gcCycles, c.gcCPU - o.gcCPU}
}

// cpuTime returns the user plus system CPU time the process has used on
// all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid buffer cannot fail.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sample is one measured job: its wall time, CPU time and peak heap.
type sample struct {
	wall, cpu time.Duration
	peakMiB   float64
}

// measureJob runs job from a freshly collected heap, so that each job's
// peak heap does not depend on garbage left by the one before.
func measureJob(job func() error) (sample, error) {
	runtime.GC()
	hs := startHeapSampler()
	c0, t0 := cpuTime(), time.Now()
	err := job()
	wall, cpu := time.Since(t0), cpuTime()-c0
	return sample{wall: wall, cpu: cpu, peakMiB: peakMiB(hs.stop(), t0, t0.Add(wall))}, err
}
