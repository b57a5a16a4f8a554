package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// The coded workload: closed-loop sessions over station.FECReceiver
// reading a Reed-Solomon coded single-channel transmitter through
// random-access PacketAt, under Gilbert-Elliott burst loss on index and
// data packets. Packet synthesis, wire decode and the FEC solve share
// the time with navigation.
const (
	codedN         = 10000
	codedOrder     = 8
	codedObjBytes  = 1024
	codedTheta     = 0.2
	codedBurst     = 4
	codedParity    = 2 // Reed-Solomon rows per group
	codedAllocScan = 1 << 16
)

var codedCode = wire.FECConfig{
	Table:  wire.FECCode{Groups: 1, Parity: codedParity},
	Object: wire.FECCode{Groups: 1, Parity: codedParity},
}

type codedInst struct {
	e  *env
	ds *dataset.Dataset
	x  *dsi.Index
	tx *station.Transmitter
}

func setupCoded(e *env, dsSeed int64) (instance, error) {
	ds := dataset.Uniform(codedN, codedOrder, dsSeed)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, ObjectBytes: codedObjBytes})
	if err != nil {
		return nil, err
	}
	tx, err := station.NewTransmitterFEC(x, codedCode)
	if err != nil {
		return nil, err
	}
	return &codedInst{e: e, ds: ds, x: x, tx: tx}, nil
}

func (c *codedInst) close() {}

// codedLoss is query q's loss process: a fresh Gilbert-Elliott chain
// seeded by the query, corrupting data packets as well as index ones.
func codedLoss(q query) *broadcast.LossModel {
	l := broadcast.GilbertForTheta(codedTheta, codedBurst, q.lossSeed)
	l.AffectsData = true
	return l
}

func (c *codedInst) measure(traced bool) (*result, error) {
	e := c.e
	ws := make([]*worker, e.workers)
	rxs := make([]*station.FECReceiver, e.workers)
	sessions := make([]*dsi.Session, e.workers)
	epoch := time.Now()
	lay := c.x.SingleLayout()
	for w := range ws {
		ws[w] = newWorker(c.ds)
		var src station.PacketSource = c.tx
		if traced {
			ws[w].tr = newTracer(w, epoch)
			var err error
			if src, err = wrapSrc(c.tx, ws[w].tr); err != nil {
				return nil, err
			}
		}
		rx, err := station.NewFECReceiver(lay, 1, src, codedCode, 0, nil)
		if err != nil {
			return nil, err
		}
		rxs[w] = rx
		var drx dsi.Receiver = rx
		if traced {
			drx = wrapRx(rx, ws[w].tr)
		}
		if sessions[w], err = dsi.Open(c.x, dsi.WithReceiver(drx)); err != nil {
			return nil, err
		}
	}
	cycle := rxs[0].CycleSlots()
	side := c.ds.Curve.Side()
	p0 := readProc()
	elapsed, err := closedLoop(ws, loopConfig{d: e.window(), limit: 6 * e.window(), minQueries: paperPrefix}, e.cal,
		func(w int, wk *worker, id int64) (outcome, error) {
			q := genQuery(e.seed, id, side)
			probe := int64(q.u * float64(cycle))
			return timedQuery(wk, sessions[w], q, probe, codedLoss(q)), nil
		})
	loopWin := since(p0)
	if err != nil {
		return nil, err
	}
	f, err := figuresOf(ws, elapsed)
	if err != nil {
		return nil, err
	}
	res := &result{
		attempted: f.queries,
		verify:    func() (int64, error) { return checkAll(c.ds, e.seed, ws), nil },
		workPerS:  f.perS,
		opP50:     f.p50,
		opTail:    f.tail,
		named: []named{
			{"queries_per_s", f.perS, "1/s"},
			{"query_us_p50", f.p50, "us"},
			{fmt.Sprintf("query_us_p%.0f", 100*f.tailQ), f.tail, "us"},
			{"latency_bytes_p50", f.latP50, "B"},
			{"latency_bytes_p99", f.latP99, "B"},
			{"tuning_bytes_p50", f.tunP50, "B"},
			{"tuning_bytes_p99", f.tunP99, "B"},
		},
	}
	if traced {
		res.trs = tracersOf(ws)
		aggs := mergeAggs(res.trs)
		q := float64(f.queries)
		res.layer = map[string]float64{}
		clientLayer(res.layer, aggs, f.queries, loopWin)
		f.paperLayer(res.layer)
		tx := aggs[layerTx]
		res.layer["station.tx_packetat_ns"] = float64(tx.total) / float64(max(tx.n, 1))
		res.layer["station.tx_packetat_calls_per_query"] = float64(tx.n) / q
		res.layer["station.rx_self_us_per_query"] = float64(aggs[layerRx].self) / 1e3 / q
		var recovered, hits int
		for _, rx := range rxs {
			recovered += rx.Recovered()
			hits += rx.CacheHits()
		}
		res.layer["station.fec_recovered_per_query"] = float64(recovered) / q
		res.layer["station.fec_cache_hits_per_query"] = float64(hits) / q
		rng := rand.New(rand.NewPCG(uint64(e.seed), 0xa11c))
		res.layer["station.tx_alloc_bytes_per_packet"] = packetAllocs(c.tx, codedAllocScan,
			func(int) (int, int64) { return 0, rng.Int64N(int64(cycle)) })
	}
	return res, nil
}

// packetAllocs is the heap bytes one PacketAt allocates on src,
// averaged over reads calls; at gives the channel and slot of each.
func packetAllocs(src station.PacketSource, reads int, at func(i int) (int, int64)) float64 {
	p0 := readProc()
	for i := 0; i < reads; i++ {
		src.PacketAt(at(i))
	}
	return float64(since(p0).allocBytes) / float64(reads)
}
