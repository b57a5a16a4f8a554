package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/diskstore"
	"dsi/internal/dsi"
	"dsi/internal/massive"
	"dsi/internal/netrecv"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// answer is one query's observable outcome on a receiver stack.
type answer struct {
	ids   []int
	stats broadcast.Stats
}

// runQueries issues the seeded queries 0..n-1 on s, tuning each in at
// probe(q) under loss(q), and returns what each query observed.
func runQueries(s *dsi.Session, side uint32, n int, probe func(query) int64, loss func(query) *broadcast.LossModel) []answer {
	out := make([]answer, n)
	for i := range out {
		q := genQuery(7, int64(i), side)
		s.Tune(probe(q), loss(q))
		ids, st := q.run(s, nil)
		out[i] = answer{ids: ids, stats: st}
	}
	return out
}

func sameAnswers(t *testing.T, stack string, bare, wrapped []answer) {
	t.Helper()
	for i := range bare {
		if !slices.Equal(bare[i].ids, wrapped[i].ids) || bare[i].stats != wrapped[i].stats {
			t.Fatalf("%s query %d: bare %v %+v, wrapped %v %+v", stack, i,
				bare[i].ids, bare[i].stats, wrapped[i].ids, wrapped[i].stats)
		}
	}
}

func noLoss(query) *broadcast.LossModel { return nil }

// TestSimStackTransparent: the sim workload's sessions, bare (WithLayout)
// and through the receiver decorator, on the three layouts it runs.
func TestSimStackTransparent(t *testing.T) {
	bed, err := massive.NewTestbed(massive.BedConfig{N: 2000})
	if err != nil {
		t.Fatal(err)
	}
	side := bed.DS.Curve.Side()
	for _, arm := range bed.Arms[:3] {
		bare, err := dsi.Open(bed.X, dsi.WithLayout(arm.Lay))
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(0, time.Now())
		wrapped, err := dsi.Open(bed.X, dsi.WithReceiver(wrapRx(dsi.NewSimReceiver(arm.Lay, 0, nil), tr)))
		if err != nil {
			t.Fatal(err)
		}
		probe := func(q query) int64 { return int64(q.u * float64(arm.Lay.ProbeCycle())) }
		sameAnswers(t, "sim/"+arm.Name, runQueries(bare, side, 60, probe, noLoss), runQueries(wrapped, side, 60, probe, noLoss))
		if tr.aggs[layerRx] == nil || tr.aggs[layerRx].n == 0 {
			t.Fatalf("sim/%s: the decorator recorded no receiver spans", arm.Name)
		}
	}
}

// TestCodedStackTransparent: FECReceiver over the coded transmitter
// under per-query burst loss, bare and with both seams decorated.
func TestCodedStackTransparent(t *testing.T) {
	ds := dataset.Uniform(1500, codedOrder, 3)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, ObjectBytes: codedObjBytes})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := station.NewTransmitterFEC(x, codedCode)
	if err != nil {
		t.Fatal(err)
	}
	open := func(src station.PacketSource, tr *tracer) (*dsi.Session, int) {
		rx, err := station.NewFECReceiver(x.SingleLayout(), 1, src, codedCode, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		var drx dsi.Receiver = rx
		if tr != nil {
			drx = wrapRx(rx, tr)
		}
		s, err := dsi.Open(x, dsi.WithReceiver(drx))
		if err != nil {
			t.Fatal(err)
		}
		return s, rx.CycleSlots()
	}
	bare, cycle := open(tx, nil)
	tr := newTracer(0, time.Now())
	src, err := wrapSrc(tx, tr)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, _ := open(src, tr)
	probe := func(q query) int64 { return int64(q.u * float64(cycle)) }
	side := ds.Curve.Side()
	sameAnswers(t, "coded", runQueries(bare, side, 60, probe, codedLoss), runQueries(wrapped, side, 60, probe, codedLoss))
	if tr.aggs[layerTx] == nil || tr.aggs[layerTx].n == 0 {
		t.Fatal("coded: the source decorator recorded no PacketAt spans")
	}
}

// TestNetStackTransparent: the net workload's oracle stack — a
// WireReceiver over the split MultiTransmitter — bare and decorated,
// then a short traced net window, whose every answer and cost the
// workload checks bit for bit against the bare in-process replay.
func TestNetStackTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("serves a station on loopback for several seconds")
	}
	e := &env{seed: 5, seconds: 2, workers: 2, out: t.TempDir(), cal: &calibration{}}
	inst, err := setupNet(e, measuredDataset)
	if err != nil {
		t.Fatal(err)
	}
	n := inst.(*netInst)
	// Both airs: phase A's station serves the big one, phase B's the
	// small one.
	for _, a := range []*air{n.big, n.q} {
		open := func(src station.PacketSource, tr *tracer) *dsi.Session {
			rx, err := station.NewWireReceiver(a.lay, 1, src, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			var drx dsi.Receiver = rx
			if tr != nil {
				drx = wrapRx(rx, tr)
			}
			s, err := dsi.Open(a.x, dsi.WithReceiver(drx))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		tr := newTracer(0, time.Now())
		src, err := a.source(tr)
		if err != nil {
			t.Fatal(err)
		}
		cycle := int64(a.lay.ProbeCycle())
		probe := func(q query) int64 { return int64(q.u*float64(cycle)) + 3*cycle }
		side := a.ds.Curve.Side()
		sameAnswers(t, fmt.Sprintf("net/in-process/%d objects", len(a.ds.Objects)),
			runQueries(open(a.tx, nil), side, 60, probe, noLoss),
			runQueries(open(src, tr), side, 60, probe, noLoss))
	}

	res, err := n.measure(true)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := res.verify()
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 || res.attempted < netMinQueries {
		t.Fatalf("traced net window: %d of %d queries differ from the bare replay", bad, res.attempted)
	}
}

// TestDecoratorsForwardOptionalMethods: a decorated source or receiver
// exposes exactly the optional methods the layers type-assert on the
// value it wraps.
func TestDecoratorsForwardOptionalMethods(t *testing.T) {
	ds := dataset.Uniform(300, 7, 1)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, ObjectBytes: 256, ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{Channels: 3, Scheduler: dsi.SchedSplit, SwitchSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := station.NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := station.NewRebroadcaster(lay)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := dsi.Build(ds, dsi.Config{Capacity: 64, ObjectBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	st, err := station.NewTransmitter(x1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.img")
	info, ok := diskstore.InfoFor(mt, wire.StationMeta{Channels: lay.Channels()})
	if !ok {
		t.Fatal("no image info for a MultiTransmitter")
	}
	if err := diskstore.WriteImageFile(path, mt, info); err != nil {
		t.Fatal(err)
	}
	img, err := diskstore.OpenImage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer img.Close()
	feed := netrecv.NewFeed(lay.Channels(), netrecv.Options{}, nil)

	tr := newTracer(0, time.Now())
	for _, src := range []station.PacketSource{st, mt, rb, img, feed} {
		w, err := wrapSrc(src, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := shapeOf(w), shapeOf(src); got != want {
			t.Errorf("%T: decorated shape %+v, bare %+v", src, got, want)
		}
	}
	for ch := 0; ch < lay.Channels(); ch++ {
		w, _ := wrapSrc(img, tr)
		for abs := int64(0); abs < int64(img.ChanSlots(ch)); abs++ {
			a, va := img.PacketAt(ch, abs)
			b, vb := w.PacketAt(ch, abs)
			if a.Flags != b.Flags || a.Slot != b.Slot || !slices.Equal(a.Payload, b.Payload) || va != vb {
				t.Fatalf("image channel %d slot %d differs through the decorator", ch, abs)
			}
		}
	}

	wr, err := station.NewWireReceiver(lay, 1, mt, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	type versioned = interface{ Version() uint32 }
	for _, rx := range []dsi.Receiver{dsi.NewSimReceiver(lay, 0, nil), wr} {
		_, want := rx.(versioned)
		w := wrapRx(rx, tr)
		if _, got := w.(versioned); got != want {
			t.Errorf("%T: decorated Version() %v, bare %v", rx, got, want)
		}
		if v, ok := w.(versioned); ok && v.Version() != rx.(versioned).Version() {
			t.Errorf("%T: Version %d through the decorator, %d bare", rx, v.Version(), rx.(versioned).Version())
		}
	}
}

// TestMetricsMatchBenchmarkJSON: the metrics a run prints are the ones
// BENCHMARK.json at the repository root declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for i, w := range spec.Workloads {
		if i >= len(names) || names[i] != w.Name {
			t.Fatalf("workloads %v, BENCHMARK.json declares %+v", names, spec.Workloads)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, BENCHMARK.json declares %d", len(perLayer), len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		if perLayer[i].name != m.Name || perLayer[i].unit != m.Unit {
			t.Errorf("per-layer metric %d: %s (%s), BENCHMARK.json %s (%s)", i, perLayer[i].name, perLayer[i].unit, m.Name, m.Unit)
		}
	}
	e2e := map[string]string{}
	for _, m := range endToEnd {
		e2e[m.name] = m.unit
	}
	if len(spec.EndToEnd) != len(e2e) {
		t.Fatalf("%d end-to-end metrics, BENCHMARK.json declares %d", len(e2e), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end-to-end metric %s (%s): the run reports unit %q", m.Name, m.Unit, e2e[m.Name])
		}
	}
}
