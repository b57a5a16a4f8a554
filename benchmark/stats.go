package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the p-quantile (0 < p <= 1) of vs by the
// nearest-rank method, sorting vs in place. It returns 0 for no
// samples.
func quantile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	i := int(float64(len(vs))*p+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(vs) {
		i = len(vs) - 1
	}
	return vs[i]
}

// tailFor returns the percentile a timing of n samples reports beside
// its median: the highest of p99 and p95 that leaves at least ten
// samples beyond it. n below 200 has no such percentile.
func tailFor(n int) (float64, error) {
	switch {
	case n >= 1000:
		return 0.99, nil
	case n >= 200:
		return 0.95, nil
	}
	return 0, fmt.Errorf("benchmark: %d timed samples leave no tail percentile with ten samples beyond it", n)
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// procSample reads the process counters a window is measured against.
type procSample struct {
	wall       time.Time
	cpu        time.Duration
	gcCycles   uint64
	allocBytes uint64
	allocObjs  uint64
}

var procMetrics = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

func readProc() procSample {
	ms := make([]metrics.Sample, len(procMetrics))
	copy(ms, procMetrics)
	metrics.Read(ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSample{
		wall: time.Now(), cpu: cpu,
		gcCycles: ms[0].Value.Uint64(), allocBytes: ms[1].Value.Uint64(), allocObjs: ms[2].Value.Uint64(),
	}
}

// window is the process activity between two samples.
type window struct {
	wall       time.Duration
	cpuShare   float64 // CPU time / (wall * GOMAXPROCS)
	gcCycles   uint64
	allocBytes uint64
	allocObjs  uint64
}

func since(a procSample) window {
	b := readProc()
	w := window{
		wall: b.wall.Sub(a.wall), gcCycles: b.gcCycles - a.gcCycles,
		allocBytes: b.allocBytes - a.allocBytes, allocObjs: b.allocObjs - a.allocObjs,
	}
	if w.wall > 0 {
		w.cpuShare = float64(b.cpu-a.cpu) / float64(w.wall) / float64(runtime.GOMAXPROCS(0))
	}
	return w
}

// heapPeak samples the live heap — the bytes the last garbage
// collection marked reachable, which unlike the in-use heap does not
// swing with the collector's timing — every few milliseconds until
// stopped and reports the highest value seen.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(ms)
			v := ms[0].Value.Uint64()
			h.mu.Lock()
			if v > h.peak {
				h.peak = v
			}
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak in MB.
func (h *heapPeak) end() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}
