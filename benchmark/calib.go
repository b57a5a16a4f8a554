package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// Machine-speed calibration. The machines this benchmark runs on share
// their CPUs and their last-level cache with other tenants: a fixed
// single-threaded loop took from 0.53 to 0.80 s second by second on the
// one the bounds were set on, and for minutes at a time whole runs ran
// up to twice as slow. So the CPU-bound end-to-end figures are reported
// at reference speed: the measured value scaled by how much slower than
// on the reference machine two fixed kernels ran in the same run — one
// bound by the core, one by the shared cache, since the workloads
// depend on both. The kernels run in bursts between the measured
// phases, while no goroutine of the program under test runs, so a
// change to the program's own load does not reach them: such a change
// moves the reference-speed figures as it moves the measured ones.

// calRefNs and memRefNs are the kernels' durations on the idle
// reference machine; they only set the scale of the reported figures.
const (
	calRefNs = 300_000
	memRefNs = 700_000
)

// calTableLen sizes the core kernel's table (16 KiB): it stays in the
// core's own cache, so the kernel measures how fast the processor runs.
const calTableLen = 1 << 12

// memChainLen sizes the cache kernel's chain (8 MiB): more than a
// core's own cache holds, so the chase runs out of the shared cache.
const memChainLen = 1 << 21

// calBurst is the samples of each kernel each processor takes in one
// burst.
const calBurst = 10

var calTable = func() []uint32 {
	t := make([]uint32, calTableLen)
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return t
}()

// memChain is one random cycle through all its entries (Sattolo's
// algorithm), so a chase through it defeats the prefetcher.
var memChain = func() []uint32 {
	c := make([]uint32, memChainLen)
	for i := range c {
		c[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := memChainLen - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		c[i], c[j] = c[j], c[i]
	}
	return c
}()

// calKernel runs the core kernel — table lookups chained through
// xorshift rounds — and returns its wall time in ns.
func calKernel() float64 {
	t := time.Now()
	x := uint32(1)
	for i := 0; i < 6000; i++ {
		x = calTable[x&(calTableLen-1)] ^ uint32(i)
		for j := 0; j < 16; j++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
		}
	}
	d := float64(time.Since(t))
	if x == 0 {
		d++ // keeps x live; the chain never reaches 0 in practice
	}
	return d
}

// memWarm reads the whole chain in order, which the prefetcher makes
// cheap, so that the chase that follows finds it in the shared cache
// whatever the program left there.
func memWarm() uint32 {
	var s uint32
	for _, v := range memChain {
		s += v
	}
	return s
}

// memKernel chases the chain from start and returns its wall time in
// ns.
func memKernel(start uint32) float64 {
	t := time.Now()
	x := start
	for i := 0; i < 4000; i++ {
		x = memChain[x]
	}
	d := float64(time.Since(t))
	if x == memChainLen {
		d++ // keeps x live; no entry holds memChainLen
	}
	return d
}

// calibration collects the kernel samples of one run.
type calibration struct {
	mu        sync.Mutex
	core, mem []float64
}

// burst samples both kernels n times on every processor at once.
// Callers run it only while no goroutine of the program under test
// runs.
func (c *calibration) burst(n int) {
	var wg sync.WaitGroup
	for p := 0; p < runtime.GOMAXPROCS(0); p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			start := memWarm() ^ uint32(p)*0x9e3779b9
			for i := 0; i < n; i++ {
				d := calKernel()
				m := memKernel((start + uint32(i)*7919) % memChainLen)
				c.mu.Lock()
				c.core = append(c.core, d)
				c.mem = append(c.mem, m)
				c.mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
}

// slowdown is the geometric mean of the two kernels' median durations,
// each over its reference: above 1 when the machine ran slower than the
// reference. It also returns each kernel's own ratio and the number of
// samples.
func (c *calibration) slowdown() (s, core, mem float64, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.core) == 0 {
		return 1, 1, 1, 0
	}
	core = median(append([]float64(nil), c.core...)) / calRefNs
	mem = median(append([]float64(nil), c.mem...)) / memRefNs
	return math.Sqrt(core * mem), core, mem, len(c.core)
}
