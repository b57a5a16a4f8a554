package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"dsi/internal/dataset"
	"dsi/internal/diskstore"
	"dsi/internal/dsi"
	"dsi/internal/station"
)

// The image workload: the out-of-core write path (external sort plus
// render) of diskstore.BuildImage with a record budget small enough
// that the sort spills, then the mmap read path — OpenImage and a
// sequential PacketAt sweep of one full cycle, read one station flush
// at a time. Every other layer is idle.
const (
	imageN        = 1_000_000
	imageOrder    = 11
	imageObjBytes = 256
	imageBudget   = 200_000 // object records the sort may hold in heap
	imageSamples  = 4096    // slots checked against the in-memory transmitter
	// imageFlushSlots is the unit of a sweep read: the slots a netsrv
	// station paced at 204 800 slots/s reads per flush.
	imageFlushSlots = 1024
)

var imageCfg = dsi.Config{Capacity: 64, ObjectBytes: imageObjBytes}

// slotSample is one slot of the broadcast as the in-memory
// transmitter produces it.
type slotSample struct {
	abs int64
	pkt station.Packet
}

type imageInst struct {
	e       *env
	dsSeed  int64
	sum     uint64
	cycle   int
	samples []slotSample
	dir     string
	flushUs []float64 // per-pass flush read times, reused across passes
}

// setupImage derives the oracle from the in-memory pipeline — the
// dataset checksum and a seeded sample of the transmitter's slots —
// and drops everything else before the window, so the window's heap is
// the out-of-core build's own.
func setupImage(e *env, seed int64) (instance, error) {
	ds := dataset.Uniform(imageN, imageOrder, seed)
	x, err := dsi.Build(ds, imageCfg)
	if err != nil {
		return nil, err
	}
	tx, err := station.NewTransmitter(x)
	if err != nil {
		return nil, err
	}
	in := &imageInst{e: e, dsSeed: seed, sum: ds.Checksum(), cycle: tx.CycleSlots()}
	in.flushUs = make([]float64, 0, in.cycle/imageFlushSlots+1)
	rng := rand.New(rand.NewPCG(uint64(e.seed), 0x1a9e))
	for i := 0; i < imageSamples; i++ {
		abs := rng.Int64N(int64(in.cycle))
		p, _ := tx.PacketAt(0, abs)
		p.Payload = bytes.Clone(p.Payload)
		in.samples = append(in.samples, slotSample{abs: abs, pkt: p})
	}
	in.dir = filepath.Join(e.out, fmt.Sprintf("image-%d", os.Getpid()))
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *imageInst) close() { _ = os.RemoveAll(in.dir) }

// imagePass is one build, open and sweep of the image.
type imagePass struct {
	buildS, openMs, packetNs float64
	spilled                  int
	bytesPerObject           float64
	flushP50, flushTail      float64 // µs
	tailQ                    float64
	checked, bad             int64
}

func (in *imageInst) pass(tr *tracer) (imagePass, error) {
	var p imagePass
	path := filepath.Join(in.dir, "cycle.img")
	defer os.Remove(path)
	span := func(name string) func() {
		if tr == nil {
			return func() {}
		}
		tr.begin(layerDisk, name)
		return tr.end
	}

	done := span("diskstore.BuildImage")
	t := time.Now()
	bs, err := diskstore.BuildImage(path, diskstore.UniformStream(imageN, imageOrder, in.dsSeed), imageCfg,
		diskstore.BuildOptions{Budget: imageBudget})
	p.buildS = time.Since(t).Seconds()
	done()
	if err != nil {
		return p, err
	}
	p.spilled = bs.SpilledRuns
	fi, err := os.Stat(path)
	if err != nil {
		return p, err
	}
	p.bytesPerObject = float64(fi.Size()) / imageN

	done = span("diskstore.OpenImage")
	t = time.Now()
	img, err := diskstore.OpenImage(path)
	p.openMs = float64(time.Since(t)) / 1e6
	done()
	if err != nil {
		return p, err
	}
	defer img.Close()

	p.checked++
	if bs.Checksum != in.sum || img.Meta().Dataset.Sum != in.sum || img.Channels() != 1 || img.ChanSlots(0) != in.cycle {
		p.bad++
	}

	done = span("diskstore.sweep")
	flush := in.flushUs[:0]
	buf := make([]byte, 0, imageFlushSlots*(imageCfg.Capacity+16))
	sweep := time.Now()
	for base := 0; base < in.cycle; base += imageFlushSlots {
		end := min(base+imageFlushSlots, in.cycle)
		t := time.Now()
		buf = buf[:0]
		for s := base; s < end; s++ {
			pkt, _ := img.PacketAt(0, int64(s))
			buf = append(buf, pkt.Flags)
			buf = append(buf, pkt.Payload...)
		}
		flush = append(flush, float64(time.Since(t))/1e3)
	}
	p.packetNs = float64(time.Since(sweep)) / float64(in.cycle)
	done()
	in.flushUs = flush
	if p.tailQ, err = tailFor(len(flush)); err != nil {
		return p, err
	}
	p.flushP50, p.flushTail = quantile(flush, 0.5), quantile(flush, p.tailQ)

	for _, s := range in.samples {
		got, _ := img.PacketAt(0, s.abs)
		p.checked++
		if got.Flags != s.pkt.Flags || got.Slot != s.pkt.Slot || !bytes.Equal(got.Payload, s.pkt.Payload) {
			p.bad++
		}
	}
	return p, nil
}

func (in *imageInst) measure(traced bool) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer(0, time.Now())
	}
	var passes []imagePass
	res := &result{}
	start := time.Now()
	for tried := 0; tried == 0 || time.Since(start) < in.e.window(); tried++ {
		in.e.cal.burst(calBurst)
		var p imagePass
		var err error
		if panics(func() { p, err = in.pass(tr) }) {
			// A pass the program panicked in fails every check it
			// would have made and is left out of the figures.
			if tr != nil {
				tr.abort()
			}
			res.attempted += 1 + imageSamples
			res.failed += 1 + imageSamples
			continue
		}
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	if len(passes) == 0 {
		return res, nil
	}
	var rates, builds, opens, pkts, p50s, tails []float64
	for _, p := range passes {
		res.attempted += p.checked
		res.failed += p.bad
		rates = append(rates, imageN/p.buildS)
		builds = append(builds, p.buildS)
		opens = append(opens, p.openMs)
		pkts = append(pkts, p.packetNs)
		p50s = append(p50s, p.flushP50)
		tails = append(tails, p.flushTail)
	}
	res.workPerS = median(rates)
	res.opP50 = median(p50s)
	res.opTail = median(tails)
	res.named = []named{
		{"build_objects_per_s", res.workPerS, "1/s"},
		{"flush_read_us_p50", res.opP50, "us"},
		{fmt.Sprintf("flush_read_us_p%.0f", 100*passes[0].tailQ), res.opTail, "us"},
	}
	if traced {
		res.trs = []*tracer{tr}
		res.layer = map[string]float64{
			"diskstore.build_s":                median(builds),
			"diskstore.spilled_runs":           float64(passes[0].spilled),
			"diskstore.open_ms":                median(opens),
			"diskstore.packetat_ns":            median(pkts),
			"diskstore.image_bytes_per_object": passes[0].bytesPerObject,
		}
	}
	return res, nil
}
