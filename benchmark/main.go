// Command benchmark is the repository's end-to-end and per-layer
// benchmark. It runs one workload against the five-layer stack from
// outside — timing only calls into the layers' public functions —
// checks every answer against an oracle, and prints each metric by
// name with its unit; the last line of its output is one JSON object
// with the run's figures. See README.md for the workloads, the metrics
// and the layer each one belongs to.
//
//	go run . --workload sim --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// env is what every workload is given: the seed its inputs derive
// from, the measured duration, the worker count, a directory for the
// files it writes, and the run's calibration, which the workload
// samples between its CPU-bound phases.
type env struct {
	seed    int64
	seconds float64
	workers int
	out     string
	cal     *calibration
}

func (e *env) window() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// datasetSeed derives the dataset seed of set-up repetition rep of
// reps. Each repetition builds a different dataset so that no cache
// (netrecv's catalog cache in particular) makes a later set-up cheaper
// than the first one a user pays for.
// The measured instance is always the last repetition's, which builds
// the dataset of seed measuredDataset however many repetitions run, so
// the data is the same in every run: the run seed varies the queries
// and tune-ins, not the data.
func datasetSeed(rep, reps int) int64 { return measuredDataset + int64(reps-1-rep) }

const measuredDataset = 5

// named is one metric as printed in the run's table.
type named struct {
	name  string
	value float64
	unit  string
}

// result is one measured window of a workload.
type result struct {
	attempted, failed int64

	workPerS float64 // the workload's throughput figure
	opP50    float64 // median operation time, µs
	opTail   float64 // tail operation time, µs
	airBound bool    // the operation times wait on a paced clock, not the CPU

	// verify runs the window's oracle checks after the window (outside
	// its heap and process figures) and returns the wrong answers.
	verify func() (int64, error)

	named []named            // the workload's metrics under their own names
	layer map[string]float64 // per-layer metrics
	trs   []*tracer          // tracers of a traced window
}

// instance is a workload after set-up.
type instance interface {
	// measure runs one window, traced or not.
	measure(traced bool) (*result, error)
	close()
}

type workload struct {
	name  string
	setup func(e *env, dsSeed int64) (instance, error)
	// reps is how many times a run sets the workload up; setup_s is the
	// median. net's set-up takes some 20 ms, so it repeats more often
	// for a median as steady as the others'.
	reps int
}

var workloads = []workload{
	{"sim", setupSim, 5},
	{"coded", setupCoded, 5},
	{"net", setupNet, 25},
	{"image", setupImage, 5},
}

// endToEnd lists the metrics every untraced run reports, whatever the
// workload; README.md says what each means on each workload.
var endToEnd = []struct{ name, unit string }{
	{"work_per_s", "1/s"},
	{"op_us_p50", "us"},
	{"op_us_tail", "us"},
	{"setup_s", "s"},
}

// perLayer lists every per-layer metric and its unit; a traced run
// reports all of them, with 0 for a layer the workload leaves idle.
var perLayer = []struct{ name, unit string }{
	{"dsi.self_us_per_query", "us"},
	{"dsi.rx_calls_per_query", "count"},
	{"dsi.allocs_per_query", "count"},
	{"dsi.alloc_bytes_per_query", "B"},
	{"dsi.simrx_us_per_query", "us"},
	{"latency_bytes_p50", "B"},
	{"latency_bytes_p99", "B"},
	{"tuning_bytes_p50", "B"},
	{"tuning_bytes_p99", "B"},
	{"massive.clients_per_s.classic", "1/s"},
	{"massive.clients_per_s.split", "1/s"},
	{"massive.clients_per_s.shard", "1/s"},
	{"massive.clients_per_s.fec", "1/s"},
	{"station.tx_packetat_ns", "ns"},
	{"station.tx_packetat_calls_per_query", "count"},
	{"station.tx_alloc_bytes_per_packet", "B"},
	{"station.rx_self_us_per_query", "us"},
	{"station.fec_recovered_per_query", "count"},
	{"station.fec_cache_hits_per_query", "count"},
	{"netsrv.flush_us_p50", "us"},
	{"netsrv.flush_us_p99", "us"},
	{"netsrv.bytes_per_slot", "B"},
	{"netsrv.dropped_batches", "count"},
	{"netsrv.lag_slots_max", "count"},
	{"netrecv.wait_ms_per_query", "ms"},
	{"netrecv.lost_slots", "count"},
	{"netrecv.frames_per_s", "1/s"},
	{"netrecv.reconnects", "count"},
	{"netrecv.bootstrap_ms", "ms"},
	{"diskstore.build_s", "s"},
	{"diskstore.spilled_runs", "count"},
	{"diskstore.open_ms", "ms"},
	{"diskstore.packetat_ns", "ns"},
	{"diskstore.image_bytes_per_object", "B"},
	{"proc.cpu_busy_share", "share"},
	{"go.gc_cycles", "count"},
	{"heap_peak_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: sim, coded, net or image")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1 runs an untraced and a traced window and reports the per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for span dumps and image files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, out string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (have sim, coded, net, image)", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	e := &env{seed: seed, seconds: seconds, workers: nproc, out: out, cal: &calibration{}}

	var inst instance
	setups := make([]float64, 0, w.reps)
	for rep := 0; rep < w.reps; rep++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		e.cal.burst(calBurst)
		t := time.Now()
		var err error
		if inst, err = w.setup(e, datasetSeed(rep, w.reps)); err != nil {
			return fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer inst.close()
	e.cal.burst(calBurst)

	res, heap, _, err := measureWindow(inst, false)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s, seed %d, %d workers, %.0f s window\n", name, seed, nproc, seconds)
	printNamed("workload figures", append([]named{
		{"failed_share", share(res.failed, res.attempted), "share"},
		{"heap_peak_mb", heap, "MB"},
	}, res.named...))
	// CPU-bound figures at reference speed (calib.go).
	slow, core, mem, samples := e.cal.slowdown()
	opSlow := slow
	if res.airBound {
		opSlow = 1
	}
	values := map[string]float64{
		"setup_s": median(setups) / slow, "work_per_s": res.workPerS * slow,
		"op_us_p50": res.opP50 / opSlow, "op_us_tail": res.opTail / opSlow,
	}
	e2e := make([]named, len(endToEnd))
	for i, m := range endToEnd {
		e2e[i] = named{m.name, values[m.name], m.unit}
	}
	printNamed(fmt.Sprintf("end to end (measured set-up %.4f s; at reference speed, slowdown %.4f (core %.4f, cache %.4f) over %d samples)",
		median(setups), slow, core, mem, samples), e2e)

	metrics := map[string]any{}
	attempted, failed := res.attempted, res.failed
	if !traced {
		for _, m := range e2e {
			metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	} else {
		tres, _, twin, err := measureWindow(inst, true)
		if err != nil {
			return err
		}
		attempted += tres.attempted
		failed += tres.failed
		layer := tres.layer
		if layer == nil {
			layer = map[string]float64{}
		}
		layer["proc.cpu_busy_share"] = twin.cpuShare
		layer["go.gc_cycles"] = float64(twin.gcCycles)
		layer["heap_peak_mb"] = heap // the untraced window's
		layer["trace.overhead_pct"] = overheadPct(res, tres)
		var rows []named
		for _, pl := range perLayer {
			v := layer[pl.name]
			delete(layer, pl.name)
			rows = append(rows, named{pl.name, v, pl.unit})
			metrics[pl.name] = map[string]any{"value": v, "unit": pl.unit}
		}
		if len(layer) > 0 {
			keys := make([]string, 0, len(layer))
			for k := range layer {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			return fmt.Errorf("%s reports undeclared per-layer metrics %v", name, keys)
		}
		printNamed("per layer (traced window)", rows)
		if res.airBound {
			fmt.Printf("  traced %s work %.2f /s vs untraced %.2f /s\n", name, tres.workPerS, res.workPerS)
		} else {
			fmt.Printf("  traced %s p50 %.2f us vs untraced %.2f us\n", name, tres.opP50, res.opP50)
		}
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := writeSpans(path, tres.trs); err != nil {
			return fmt.Errorf("span dump: %w", err)
		}
		fmt.Printf("  spans: %s\n", path)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// overheadPct is how much slower the traced window ran than the
// untraced one, in percent, on the workload's CPU-bound figure: the
// median operation time, or the throughput where operations wait on a
// paced clock.
func overheadPct(untraced, traced *result) float64 {
	if untraced.airBound {
		return 100 * (untraced.workPerS/traced.workPerS - 1)
	}
	return 100 * (traced.opP50/untraced.opP50 - 1)
}

// measureWindow runs one window with the heap sampled and the process
// counters read around it.
func measureWindow(inst instance, traced bool) (*result, float64, window, error) {
	runtime.GC()
	hp := startHeapPeak()
	p0 := readProc()
	res, err := inst.measure(traced)
	win := since(p0)
	heap := hp.end()
	if err != nil {
		return nil, 0, win, err
	}
	if res.verify != nil {
		bad, err := res.verify()
		if err != nil {
			return nil, 0, win, fmt.Errorf("oracle: %w", err)
		}
		res.failed += bad
	}
	if res.attempted < 1 {
		return nil, 0, win, fmt.Errorf("window attempted no operations")
	}
	return res, heap, win, nil
}

func share(failed, attempted int64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func printNamed(title string, rows []named) {
	fmt.Printf("%s:\n", title)
	for _, r := range rows {
		fmt.Printf("  %-38s %14.4f %s\n", r.name, r.value, r.unit)
	}
}
