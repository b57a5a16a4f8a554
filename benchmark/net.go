package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/netrecv"
	"dsi/internal/netsrv"
	"dsi/internal/obs"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// The net workload: the station cmd/dsistation runs (a 4-channel split
// MultiTransmitter behind netsrv, with a Registry) served on loopback.
// Phase A measures capacity: a station of dsistation's default size
// runs unpaced while one HTTP subscriber drains it. Phase B measures
// latency: a station over a small dataset whose air repeats every few
// hundred slots is paced at netRate while one HTTP and one UDP receiver
// each run a closed loop of queries.
const (
	// Phase A's air is dsistation's default build: 10^4 objects at
	// order 8 with the index's default object size (1 KB), so the
	// station sweeps a cycle far larger than the processor's caches.
	capN        = 10000
	capOrder    = 8
	capObjBytes = 0 // dsi.Build's default, as dsistation's -objbytes 0
	// Phase B's netN objects fill every frame of the split layout
	// evenly, so all channels share one short hyperperiod (see
	// hyperperiod) and each query's tune-in repeats exactly.
	netN          = 540
	netOrder      = 8
	netObjBytes   = 256
	netCapacity   = 64
	netChannels   = 4
	netSwitch     = 2
	netCtrl       = 256
	netRate       = 20000 // phase B pace, slots/s
	netShareA     = 0.35  // share of the window given to phase A
	netSubWindows = 21    // phase A rate samples; the rate is their median
	netMinQueries = 200
	netClockEvery = time.Millisecond
	netCalBurst   = 3       // calibration samples per processor before each phase A sub-window
	netAllocScan  = 1 << 16 // PacketAt calls of the allocation scan
)

// air is one broadcast as cmd/dsistation builds it: a uniform dataset,
// its index, the 4-channel split layout, the transmitter and the
// catalog document the station serves.
type air struct {
	ds   *dataset.Dataset
	x    *dsi.Index
	lay  *dsi.Layout
	tx   *station.MultiTransmitter
	meta wire.StationMeta
}

func buildAir(n int, order uint, objBytes int, seed int64) (*air, error) {
	ds := dataset.Uniform(n, order, seed)
	x, err := dsi.Build(ds, dsi.Config{Capacity: netCapacity, Segments: 1, ObjectBytes: objBytes, ReserveMCPtr: true})
	if err != nil {
		return nil, err
	}
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{Channels: netChannels, Scheduler: dsi.SchedSplit, SwitchSlots: netSwitch})
	if err != nil {
		return nil, err
	}
	tx, err := station.NewMultiTransmitter(lay)
	if err != nil {
		return nil, err
	}
	return &air{ds: ds, x: x, lay: lay, tx: tx, meta: wire.StationMeta{
		Dataset:  wire.StationDataset{Kind: "uniform", N: n, Order: order, Seed: seed, Sum: ds.Checksum()},
		Capacity: netCapacity, Segments: 1, ObjectBytes: objBytes, ReserveMCPtr: true,
		Channels: lay.Channels(), Scheduler: "split", SwitchSlots: netSwitch,
		ShardBounds: lay.ShardBounds(),
	}}, nil
}

type netInst struct {
	e      *env
	big    *air // phase A
	q      *air // phase B
	hyper  int64
	cat    *netrecv.Catalog
	bootMs float64
}

// hyperperiod is the least common multiple of the layout's channel
// lengths: the air repeats itself every hyperperiod slots, so a query
// tuned in at a given phase of it pays the same costs whenever it runs.
func hyperperiod(lay *dsi.Layout) int64 {
	gcd := func(a, b int64) int64 {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	h := int64(1)
	for ch := 0; ch < lay.Channels(); ch++ {
		c := int64(lay.ChanLen(ch))
		h = h / gcd(h, c) * c
	}
	return h
}

func setupNet(e *env, seed int64) (instance, error) {
	big, err := buildAir(capN, capOrder, capObjBytes, seed)
	if err != nil {
		return nil, err
	}
	q, err := buildAir(netN, netOrder, netObjBytes, seed)
	if err != nil {
		return nil, err
	}
	n := &netInst{e: e, big: big, q: q, hyper: hyperperiod(q.lay)}
	if n.hyper > 4*int64(q.lay.ProbeCycle()) {
		return nil, fmt.Errorf("split layout hyperperiod %d slots is too long to tune in by phase", n.hyper)
	}
	st, err := startStation(q, q.tx, netRate, nil)
	if err != nil {
		return nil, err
	}
	defer st.close()
	t := time.Now()
	n.cat, err = netrecv.Bootstrap(st.base, netrecv.Options{})
	n.bootMs = float64(time.Since(t)) / 1e6
	if err != nil {
		return nil, err
	}
	return n, nil
}

func (n *netInst) close() {}

// netStation is one netsrv.Server served on loopback over HTTP and UDP.
type netStation struct {
	srv     *netsrv.Server
	reg     *obs.Registry
	base    string
	udp     string
	ctx     context.Context
	cancel  context.CancelFunc
	hs      *http.Server
	serving sync.WaitGroup
	t0      time.Time
}

// startStation serves src, the transmitter of a or a decorator of it,
// at rate slots/s (unpaced and lossless at 0); its clock starts with
// run.
func startStation(a *air, src station.PacketSource, rate int, tick func(int64)) (*netStation, error) {
	st := &netStation{reg: obs.NewRegistry()}
	var err error
	st.srv, err = netsrv.New(netsrv.Config{
		Source: src, Layout: a.lay, Meta: a.meta,
		SlotsPerSec: rate, CtrlEvery: netCtrl, Registry: st.reg, Tick: tick,
		Block: rate <= 0,
	})
	if err != nil {
		return nil, err
	}
	st.ctx, st.cancel = context.WithCancel(context.Background())
	if st.udp, err = st.srv.ServeUDP(st.ctx, "127.0.0.1:0"); err != nil {
		st.cancel()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.cancel()
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: st.srv.Handler()}
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		_ = st.hs.Serve(ln) // returns ErrServerClosed from close
	}()
	return st, nil
}

// run starts the slot clock; slot abs is due at t0 + abs/rate.
func (st *netStation) run() {
	st.t0 = time.Now()
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		_ = st.srv.Run(st.ctx) // returns only when the context ends
	}()
}

// close stops the clock and the transports and waits for both.
func (st *netStation) close() {
	st.cancel()
	_ = st.hs.Close()
	st.serving.Wait()
}

// flushClock is netsrv's Tick hook in traced runs: it records the
// interval between flushes and brackets each flush in a span on the
// pacer's tracer.
type flushClock struct {
	tr   *tracer
	last time.Time
	gaps []float64 // µs
	open bool
}

func (f *flushClock) tick(int64) {
	now := time.Now()
	if f.open {
		f.tr.end()
		f.gaps = append(f.gaps, float64(now.Sub(f.last))/1e3)
	}
	f.last = now
	f.tr.begin(layerFlush, "netsrv.flush")
	f.open = true
}

func (f *flushClock) stop() {
	if f.open {
		f.tr.end()
		f.open = false
	}
}

// runFor runs the station's clock for d and stops it again. It
// returns the slots the station emitted per second.
func (st *netStation) runFor(d time.Duration) float64 {
	ctx, stop := context.WithCancel(st.ctx)
	ran := make(chan struct{})
	ts, as := time.Now(), st.srv.Now()
	go func() {
		defer close(ran)
		_ = st.srv.Run(ctx) // returns only when the context ends
	}()
	time.Sleep(d)
	rate := float64(st.srv.Now()-as) / time.Since(ts).Seconds()
	stop()
	<-ran
	return rate
}

// drain is a plain HTTP subscriber: it reads the station's frame
// stream and discards it, so the station's own cost sets phase A's
// rate.
type drain struct {
	body io.ReadCloser
	done chan struct{}
	read atomic.Int64 // bytes read so far
}

func subscribe(base string) (*drain, error) {
	resp, err := http.Get(base + "/v1/stream")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe: %s", resp.Status)
	}
	d := &drain{body: resp.Body, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_, _ = io.Copy(d, resp.Body) // ends when close shuts the body
	}()
	return d, nil
}

// Write counts and discards what the subscriber reads.
func (d *drain) Write(p []byte) (int, error) {
	d.read.Add(int64(len(p)))
	return len(p), nil
}

// settle waits until the subscriber has read what a stopped station
// queued for it: until its byte count holds still for a millisecond.
func (d *drain) settle() {
	for last := int64(-1); ; {
		n := d.read.Load()
		if n == last {
			return
		}
		last = n
		time.Sleep(time.Millisecond)
	}
}

func (d *drain) close() {
	_ = d.body.Close()
	<-d.done
}

// source returns a's transmitter as handed to a station: decorated
// with spans on tr when traced.
func (a *air) source(tr *tracer) (station.PacketSource, error) {
	if tr == nil {
		return a.tx, nil
	}
	return wrapSrc(a.tx, tr)
}

// capacity is phase A: the unpaced station's slot rate while one HTTP
// subscriber drains it.
type capacity struct {
	slotsPerS    float64
	flushP50     float64
	flushP99     float64
	bytesPerSlot float64
	drops        float64
	txAgg        agg
	tr           *tracer
}

func (n *netInst) capacityPhase(d time.Duration, traced bool, epoch time.Time, trID int) (*capacity, error) {
	var (
		tr   *tracer
		clk  *flushClock
		tick func(int64)
	)
	if traced {
		tr = newTracer(trID, epoch)
		clk = &flushClock{tr: tr}
		tick = clk.tick
	}
	src, err := n.big.source(tr)
	if err != nil {
		return nil, err
	}
	st, err := startStation(n.big, src, 0, tick)
	if err != nil {
		return nil, err
	}
	defer st.close()
	sub, err := subscribe(st.base)
	if err != nil {
		return nil, err
	}
	defer sub.close()

	c := &capacity{tr: tr}
	rates := make([]float64, 0, netSubWindows)
	reg0 := st.reg.Snapshot()
	for i := 0; i < netSubWindows; i++ {
		// The station is stopped and its subscriber idle while the
		// calibration kernel runs, so the program's load never
		// reaches the kernel.
		sub.settle()
		n.e.cal.burst(netCalBurst)
		rates = append(rates, st.runFor(d/netSubWindows))
		if clk != nil {
			clk.stop() // the stop is no flush interval
		}
	}
	sub.settle()
	reg1 := st.reg.Snapshot()
	sub.close()
	st.close()
	if clk != nil {
		c.flushP50, c.flushP99 = quantile(clk.gaps, 0.5), quantile(clk.gaps, 0.99)
		if a := tr.aggs[layerTx]; a != nil {
			c.txAgg = *a
		}
	}
	c.slotsPerS = median(rates)
	delta := func(key string) float64 { return reg1[key] - reg0[key] }
	var bytes, frames float64
	for k := range reg1 {
		if strings.HasPrefix(k, "station_net_bytes_total") {
			bytes += delta(k)
		}
	}
	frames = delta(`station_net_frames_total{transport="http"}`)
	if frames > 0 {
		c.bytesPerSlot = bytes / (frames / float64(n.big.lay.Channels()))
	}
	c.drops = delta(`station_net_dropped_batches_total{transport="http"}`)
	return c, nil
}

func (n *netInst) measure(traced bool) (*result, error) {
	e := n.e
	epoch := time.Now()
	dA := time.Duration(netShareA * float64(e.window()))
	capA, err := n.capacityPhase(dA, traced, epoch, 2)
	if err != nil {
		return nil, fmt.Errorf("net phase A: %w", err)
	}
	if capA.slotsPerS < 2*netRate {
		return nil, fmt.Errorf("net phase A: the station sustains %.0f slots/s, under twice the %d slots/s phase B pace", capA.slotsPerS, netRate)
	}

	// Phase B: the paced station and one closed loop per transport.
	var ptr *tracer
	if traced {
		ptr = newTracer(3, epoch)
	}
	src, err := n.q.source(ptr)
	if err != nil {
		return nil, err
	}
	st, err := startStation(n.q, src, netRate, nil)
	if err != nil {
		return nil, err
	}
	defer st.close()
	st.run()
	rreg := obs.NewRegistry()
	hrx, err := netrecv.NewHTTPReceiver(st.base, n.cat, netrecv.Options{Registry: rreg})
	if err != nil {
		return nil, err
	}
	defer hrx.Close()
	urx, err := netrecv.NewUDPReceiver(st.udp, -1, n.cat, netrecv.Options{Registry: rreg})
	if err != nil {
		return nil, err
	}
	defer urx.Close()
	rxs := []*netrecv.Receiver{&hrx.Receiver, &urx.Receiver}
	ws := make([]*worker, len(rxs))
	sessions := make([]*dsi.Session, len(rxs))
	for w, rx := range rxs {
		ws[w] = newWorker(n.cat.DS)
		var drx dsi.Receiver = rx
		if traced {
			ws[w].tr = newTracer(w, epoch)
			drx = wrapRx(rx, ws[w].tr)
		}
		if sessions[w], err = dsi.Open(n.cat.X, dsi.WithReceiver(drx)); err != nil {
			return nil, err
		}
	}

	// The station's clock, logged at a fine cadence: when each slot was
	// actually emitted, and how far the pacer trails the ideal clock.
	clockStop := make(chan struct{})
	clockDone := make(chan []clockSample)
	go func() {
		log := make([]clockSample, 0, int(4*e.window()/netClockEvery))
		tick := time.NewTicker(netClockEvery)
		defer tick.Stop()
		for {
			select {
			case <-clockStop:
				clockDone <- log
				return
			case <-tick.C:
				log = append(log, clockSample{at: time.Since(st.t0), now: st.srv.Now()})
			}
		}
	}()

	side := n.q.ds.Curve.Side()
	dB := e.window() - dA
	p0 := readProc()
	_, err = closedLoop(ws, loopConfig{d: dB, limit: 6 * dB, minQueries: netMinQueries}, nil,
		func(w int, wk *worker, id int64) (outcome, error) {
			q := genQuery(e.seed, id, side)
			rx := rxs[w]
			phase := int64(q.u * float64(n.hyper))
			live := rx.LiveSlot()
			probe := live + 1 + ((phase-(live+1))%n.hyper+n.hyper)%n.hyper
			lost := rx.Feed().LostSlots()
			o := timedQuery(wk, sessions[w], q, probe, nil)
			o.done = time.Since(st.t0)
			o.lost = rx.Feed().LostSlots() - lost
			return o, nil
		})
	loopWin := since(p0)
	close(clockStop)
	clock := <-clockDone
	if err != nil {
		return nil, fmt.Errorf("net phase B: %w", err)
	}
	framesPerS := float64(rreg.Sum("netrecv_frames_total")) / loopWin.wall.Seconds()
	var lostSlots, reconnects int64
	for _, rx := range rxs {
		lostSlots += rx.Feed().LostSlots()
		reconnects += rx.Reconnects()
	}
	hrx.Close()
	urx.Close()
	st.close()

	var durs, fromDue, lat, tun []float64
	var queries int64
	for _, wk := range ws {
		for _, o := range wk.out {
			queries++
			if o.panicked {
				continue
			}
			durs = append(durs, float64(o.done-emittedAt(clock, o.probe))/1e3)
			due := time.Duration(float64(o.probe) / netRate * float64(time.Second))
			fromDue = append(fromDue, float64(o.done-due)/1e3)
			if o.id < netMinQueries {
				lat = append(lat, float64(o.stats.LatencyBytes()))
				tun = append(tun, float64(o.stats.TuningBytes()))
			}
		}
	}
	tailQ, err := tailFor(len(durs))
	if err != nil {
		return nil, err
	}
	f := loopFigures{queries: queries, p50: quantile(durs, 0.5), tail: quantile(durs, tailQ), tailQ: tailQ,
		latP50: quantile(lat, 0.5), latP99: quantile(lat, 0.99), tunP50: quantile(tun, 0.5), tunP99: quantile(tun, 0.99)}
	tailName := fmt.Sprintf("p%.0f", 100*tailQ)
	lagMax := maxLag(clock)
	res := &result{
		attempted: queries,
		verify:    func() (int64, error) { return n.checkAll(ws) },
		workPerS:  capA.slotsPerS,
		airBound:  true,
		opP50:     f.p50,
		opTail:    f.tail,
		named: []named{
			{"station_slots_per_s", capA.slotsPerS, "1/s"},
			{"net_query_ms_p50", quantile(fromDue, 0.5) / 1e3, "ms"},
			{"net_query_ms_" + tailName, quantile(fromDue, tailQ) / 1e3, "ms"},
			{"net_query_emitted_ms_p50", f.p50 / 1e3, "ms"},
			{"net_query_emitted_ms_" + tailName, f.tail / 1e3, "ms"},
			{"latency_bytes_p50", f.latP50, "B"},
			{"latency_bytes_p99", f.latP99, "B"},
			{"tuning_bytes_p50", f.tunP50, "B"},
			{"tuning_bytes_p99", f.tunP99, "B"},
			{"netsrv.lag_slots_max", float64(lagMax), "count"},
		},
	}
	if traced {
		aggs := mergeAggs(tracersOf(ws))
		res.trs = append(tracersOf(ws), capA.tr, ptr)
		q := float64(queries)
		m := map[string]float64{}
		clientLayer(m, aggs, queries, loopWin)
		f.paperLayer(m)
		m["station.tx_packetat_ns"] = float64(capA.txAgg.total) / float64(max(capA.txAgg.n, 1))
		if a := ptr.aggs[layerTx]; a != nil {
			m["station.tx_packetat_calls_per_query"] = float64(a.n) / q
		}
		nch := n.big.lay.Channels()
		m["station.tx_alloc_bytes_per_packet"] = packetAllocs(n.big.tx, netAllocScan,
			func(i int) (int, int64) { return i % nch, int64(i / nch) })
		m["netsrv.flush_us_p50"] = capA.flushP50
		m["netsrv.flush_us_p99"] = capA.flushP99
		m["netsrv.bytes_per_slot"] = capA.bytesPerSlot
		m["netsrv.dropped_batches"] = capA.drops
		m["netsrv.lag_slots_max"] = float64(lagMax)
		m["netrecv.wait_ms_per_query"] = float64(aggs[layerRx].total) / 1e6 / q
		m["netrecv.lost_slots"] = float64(lostSlots)
		m["netrecv.frames_per_s"] = framesPerS
		m["netrecv.reconnects"] = float64(reconnects)
		m["netrecv.bootstrap_ms"] = n.bootMs
		res.layer = m
	}
	return res, nil
}

// clockSample is the station's slot clock read at a wall offset from
// its start.
type clockSample struct {
	at  time.Duration
	now int64 // next slot to be emitted
}

// emittedAt returns when slot abs had been emitted: the first logged
// reading at which the clock had passed it.
func emittedAt(log []clockSample, abs int64) time.Duration {
	i := sort.Search(len(log), func(i int) bool { return log[i].now > abs })
	if i == len(log) {
		return log[len(log)-1].at
	}
	return log[i].at
}

// maxLag is the most slots the pacer trailed the ideal paced clock by.
func maxLag(log []clockSample) int64 {
	var worst int64
	for _, c := range log {
		if lag := int64(c.at.Seconds()*netRate) - c.now; lag > worst {
			worst = lag
		}
	}
	return worst
}

// checkAll verifies every network answer: against brute force, and
// bit for bit — ids, latency, tuning and switches — against an
// in-process WireReceiver replay at the same tune-in slot over the
// station's own transmitter. A query whose feed lost slots fails too,
// as does one whose replay panics.
func (n *netInst) checkAll(ws []*worker) (int64, error) {
	orx, err := station.NewWireReceiver(n.q.lay, 1, n.q.tx, 0, nil)
	if err != nil {
		return 0, err
	}
	sess, err := dsi.Open(n.q.x, dsi.WithReceiver(orx))
	if err != nil {
		return 0, err
	}
	side := n.q.ds.Curve.Side()
	var bad int64
	var buf []int
	for _, wk := range ws {
		for _, o := range wk.out {
			q := genQuery(n.e.seed, o.id, side)
			var st broadcast.Stats
			var want uint64
			if o.panicked || panics(func() {
				sess.Tune(o.probe, nil)
				buf, st = q.run(sess, buf[:0])
				want = bruteKey(n.q.ds, q)
			}) {
				bad++
				continue
			}
			same := o.lost == 0 && o.seq == digestInts(buf) &&
				o.stats.LatencyPackets == st.LatencyPackets &&
				o.stats.TuningPackets == st.TuningPackets &&
				o.stats.Switches == st.Switches
			if !same || o.key != want {
				bad++
			}
		}
	}
	return bad, nil
}
