package exp

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Measure runs f, returning its wall-clock seconds and an approximate
// peak live-heap footprint in MiB. Peak heap is sampled by a background
// goroutine (runtime.MemStats.HeapInuse every few milliseconds), which is
// a proxy for the contest's peak-RSS measurement — adequate for comparing
// methods within one process.
func Measure(f func() error) (sec float64, memMiB float64, err error) {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	var peak atomic.Int64
	peak.Store(int64(base.HeapInuse))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				runtime.ReadMemStats(&ms)
				if h := int64(ms.HeapInuse); h > peak.Load() {
					peak.Store(h)
				}
			}
		}
	}()

	start := time.Now()
	err = f()
	sec = time.Since(start).Seconds()
	close(stop)
	<-done

	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if h := int64(end.HeapInuse); h > peak.Load() {
		peak.Store(h)
	}
	memMiB = float64(peak.Load()) / (1 << 20)
	return sec, memMiB, err
}
