package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/spatial"
)

// The query mix every query workload shares: half windows of side 0.1
// of the grid, half 5-nearest-neighbour queries, each tuned in at a
// uniformly drawn point of the cycle.
const (
	winSideRatio = 0.1
	knnK         = 5
	// paperPrefix is how many leading query ids the paper metrics
	// (latency and tuning bytes) are taken over. Every run completes at
	// least this many, so the figures are a function of the seed alone.
	paperPrefix = 1000
)

// query is one generated query: a function of (seed, id) only, so the
// same seed replays the same queries whichever worker runs them.
type query struct {
	id       int64
	knn      bool
	win      spatial.Rect
	pt       spatial.Point
	u        float64 // tune-in point as a fraction of the cycle
	lossSeed int64
}

func genQuery(seed, id int64, side uint32) query {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15*uint64(id+1)))
	q := query{id: id, knn: rng.IntN(2) == 0}
	x, y := uint32(rng.IntN(int(side))), uint32(rng.IntN(int(side)))
	q.pt = spatial.Point{X: x, Y: y}
	q.win = spatial.ClampedWindow(x, y, uint32(float64(side)*winSideRatio), side)
	q.u = rng.Float64()
	q.lossSeed = int64(rng.Uint64() >> 1)
	return q
}

// run issues q on a session that has been tuned in.
func (q query) run(s *dsi.Session, dst []int) ([]int, broadcast.Stats) {
	if q.knn {
		return s.KNNAppend(dst, q.pt, knnK, dsi.Conservative)
	}
	return s.WindowAppend(dst, q.win)
}

// outcome is one completed query as the worker recorded it: its cost
// and two digests of its answer, so that recording stays constant-size
// however long the run.
type outcome struct {
	id    int64
	dur   time.Duration
	stats broadcast.Stats
	lost  int64         // slots the network feed declared lost during the query
	probe int64         // absolute tune-in slot
	done  time.Duration // completion, since the station's clock started (net)
	seq   uint64        // digest of the answer ids in the order returned
	key   uint64        // digest of the answer as the oracle compares it (answerKey)
	// panicked marks a query the program panicked on: it counts as
	// failed and carries no timing.
	panicked bool
}

// outcomesPerWorker presizes each worker's record so that it does not
// grow during a window of ordinary length.
const outcomesPerWorker = 1 << 15

// worker is one closed-loop client: it records outcomes without
// allocating per query once its buffers have grown.
type worker struct {
	ds      *dataset.Dataset // the client's dataset, for answer keys
	out     []outcome
	ids     []int
	scratch []float64
	tr      *tracer // nil in untraced runs
}

func newWorker(ds *dataset.Dataset) *worker {
	return &worker{ds: ds, out: make([]outcome, 0, outcomesPerWorker)}
}

// loopConfig bounds a closed loop: it runs for at least d and until at
// least minQueries have completed, and fails past limit.
type loopConfig struct {
	d, limit   time.Duration
	minQueries int64
}

// closedLoop runs one closed-loop client per worker: each takes the
// next query id, issues it through step and records the outcome only
// after it completes. Query ids are handed out in order, so when the
// loop ends every id below the highest taken has completed. It returns
// the time the workers ran.
//
// With a calibration, the loop runs in segments of calPeriod: between
// two segments every worker has finished its query and returned, and
// the kernel runs on every processor while no query does, so the
// program's own load never reaches the kernel. The time the kernel
// takes counts toward neither the window nor the returned duration.
func closedLoop(ws []*worker, cfg loopConfig, cal *calibration, step func(w int, wk *worker, id int64) (outcome, error)) (time.Duration, error) {
	var next, done atomic.Int64
	var ran time.Duration // time the workers ran, bursts excluded
	errs := make([]error, len(ws))
	for ran < cfg.d || done.Load() < cfg.minQueries {
		if ran >= cfg.limit {
			return 0, fmt.Errorf("benchmark: only %d of %d queries done in %v", done.Load(), cfg.minQueries, cfg.limit)
		}
		seg := cfg.limit - ran
		if cal != nil {
			cal.burst(calBurst)
			seg = min(seg, calPeriod)
		}
		before := ran
		start := time.Now()
		var wg sync.WaitGroup
		for i := range ws {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				wk := ws[i]
				for el := time.Since(start); el < seg; el = time.Since(start) {
					if before+el >= cfg.d && done.Load() >= cfg.minQueries {
						return
					}
					o, err := safeStep(step, i, wk, next.Add(1)-1)
					if err != nil {
						errs[i] = err
						return
					}
					wk.out = append(wk.out, o)
					done.Add(1)
				}
			}(i)
		}
		wg.Wait()
		ran += time.Since(start)
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
	}
	return ran, nil
}

// calPeriod is how long a calibrated closed loop runs between two
// kernel bursts.
const calPeriod = 500 * time.Millisecond

// safeStep runs one query, turning a panic inside the program into a
// failed outcome so that one bad query does not end the run.
func safeStep(step func(w int, wk *worker, id int64) (outcome, error), w int, wk *worker, id int64) (o outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			o, err = outcome{id: id, panicked: true}, nil
			if wk.tr != nil {
				wk.tr.abort()
			}
		}
	}()
	return step(w, wk, id)
}

// panics runs f and reports whether the program panicked inside it, so
// that a panic in a call the benchmark makes counts as a failed
// operation instead of ending the run.
func panics(f func()) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	f()
	return false
}

// timedQuery tunes s in at probe under loss and runs q, inside a query
// span when traced, and digests the answer outside the timing.
func timedQuery(wk *worker, s *dsi.Session, q query, probe int64, loss *broadcast.LossModel) outcome {
	if wk.tr != nil {
		wk.tr.beginQuery(q.id)
	}
	t := time.Now()
	s.Tune(probe, loss)
	ids, st := q.run(s, wk.ids[:0])
	d := time.Since(t)
	if wk.tr != nil {
		wk.tr.endQuery()
	}
	wk.ids = ids
	o := outcome{id: q.id, dur: d, stats: st, probe: probe, seq: digestInts(ids)}
	o.key, wk.scratch = answerKey(wk.ds, q, ids, wk.scratch)
	return o
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// fnvAdd folds the eight bytes of u into the FNV-1a digest h.
func fnvAdd(h, u uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= u & 0xff
		h *= fnvPrime
		u >>= 8
	}
	return h
}

// digestInts is an FNV-1a digest of a sequence of ints.
func digestInts(vs []int) uint64 {
	h := uint64(fnvOffset)
	for _, v := range vs {
		h = fnvAdd(h, uint64(v))
	}
	return h
}

// answerKey digests an answer the way the oracle compares it: a window
// as its set of ids, a kNN answer as the multiset of its neighbours'
// distances (ties at the k-th distance may be broken either way). An
// id outside the dataset yields a key no correct answer has. scratch
// is reused and returned.
func answerKey(ds *dataset.Dataset, q query, ids []int, scratch []float64) (uint64, []float64) {
	scratch = scratch[:0]
	if q.knn {
		for _, id := range ids {
			if id < 0 || id >= len(ds.Objects) {
				return 0, scratch
			}
			scratch = append(scratch, ds.Objects[id].P.Dist2(q.pt))
		}
	} else {
		for _, id := range ids {
			scratch = append(scratch, float64(id))
		}
	}
	slices.Sort(scratch)
	h := fnvAdd(fnvOffset, uint64(len(scratch)))
	for _, v := range scratch {
		h = fnvAdd(h, math.Float64bits(v))
	}
	return h, scratch
}

// bruteKey is the key of the answer brute force over the dataset
// gives: Dataset.WindowBrute for windows, Dataset.KNNBrute for kNN.
func bruteKey(ds *dataset.Dataset, q query) uint64 {
	var want []int
	if q.knn {
		want, _ = ds.KNNBrute(q.pt, knnK)
	} else {
		want = ds.WindowBrute(q.win)
	}
	k, _ := answerKey(ds, q, want, nil)
	return k
}

// checkAll verifies every recorded answer against brute force, split
// across the workers' goroutines, and returns the number of wrong ones.
func checkAll(ds *dataset.Dataset, seed int64, ws []*worker) int64 {
	side := ds.Curve.Side()
	var bad atomic.Int64
	var wg sync.WaitGroup
	for _, wk := range ws {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			for _, o := range wk.out {
				var want uint64
				if o.panicked || panics(func() { want = bruteKey(ds, genQuery(seed, o.id, side)) }) || o.key != want {
					bad.Add(1)
				}
			}
		}(wk)
	}
	wg.Wait()
	return bad.Load()
}

// loopFigures are the timing and paper figures of a closed loop.
type loopFigures struct {
	queries                        int64
	perS                           float64
	p50, tail                      float64 // query time, µs
	tailQ                          float64 // the tail's percentile
	latP50, latP99, tunP50, tunP99 float64
}

func figuresOf(ws []*worker, elapsed time.Duration) (loopFigures, error) {
	var f loopFigures
	var durs, lat, tun []float64
	for _, wk := range ws {
		f.queries += int64(len(wk.out))
		for _, o := range wk.out {
			if o.panicked {
				continue
			}
			durs = append(durs, float64(o.dur)/1e3)
			if o.id < paperPrefix {
				lat = append(lat, float64(o.stats.LatencyBytes()))
				tun = append(tun, float64(o.stats.TuningBytes()))
			}
		}
	}
	q, err := tailFor(len(durs))
	if err != nil {
		return f, err
	}
	f.perS = float64(len(durs)) / elapsed.Seconds()
	f.tailQ = q
	f.tail = quantile(durs, q)
	f.p50 = quantile(durs, 0.5)
	f.latP50, f.latP99 = quantile(lat, 0.5), quantile(lat, 0.99)
	f.tunP50, f.tunP99 = quantile(tun, 0.5), quantile(tun, 0.99)
	return f, nil
}

func tracersOf(ws []*worker) []*tracer {
	out := make([]*tracer, len(ws))
	for i, wk := range ws {
		out[i] = wk.tr
	}
	return out
}

// paperLayer adds the paper metrics to a per-layer map.
func (f loopFigures) paperLayer(m map[string]float64) {
	m["latency_bytes_p50"] = f.latP50
	m["latency_bytes_p99"] = f.latP99
	m["tuning_bytes_p50"] = f.tunP50
	m["tuning_bytes_p99"] = f.tunP99
}

// clientLayer adds the dsi client's per-query figures from the traced
// aggregates and the loop's allocation counts.
func clientLayer(m map[string]float64, aggs map[string]agg, queries int64, win window) {
	q := float64(queries)
	m["dsi.self_us_per_query"] = float64(aggs[layerQuery].self) / 1e3 / q
	m["dsi.rx_calls_per_query"] = float64(aggs[layerRx].n) / q
	m["dsi.allocs_per_query"] = float64(win.allocObjs) / q
	m["dsi.alloc_bytes_per_query"] = float64(win.allocBytes) / q
}
