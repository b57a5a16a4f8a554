// The wireloss experiment: the simulator fast path against byte-level
// reception, end to end over the wire layer. Both arms run the same
// sharded layout under the same Gilbert-Elliott loss processes; the
// Sim arm reads the in-memory simulator (dsi.SimReceiver), the Wire
// arm decodes the actual packets a station.Transmitter puts on
// air (station.WireReceiver). Over a static transmitter the two are
// bit-identical at every loss rate — the regression that closes the
// seam ROADMAP called out between the simulator and the wire layer.
//
// The third arm tunes in stale: the broadcast has committed a
// directory swap the client's catalog predates, so every query must
// receive the versioned shard directory over the lossy air (directory
// packets are subject to exactly the same loss process) before its
// payloads decode — the cost of byte-level convergence that the
// simulator arms never pay.

package experiment

import (
	"fmt"

	"dsi/internal/broadcast"
	"dsi/internal/dsi"
	"dsi/internal/sched"
	"dsi/internal/spatial"
	"dsi/internal/station"
)

// WireLossThetas is the stationary loss sweep of the wireloss
// experiment (Gilbert-Elliott at Table1GEBurstLen mean burst length).
var WireLossThetas = []float64{0, 0.1, 0.25}

// WireLossChannels is the sharded layout's channel count.
const WireLossChannels = 4

// WireLossTheta is the Zipf skew of the plan the stale arm's broadcast
// has swapped to.
const WireLossTheta = 1.2

// wireSystem runs queries through byte-level receivers over a static
// packet source, with one receiver+session pinned per worker: the
// session facade's WithReceiver path under the standard harness.
type wireSystem struct {
	label string
	x     *dsi.Index
	lay   *dsi.Layout
	src   station.PacketSource
	strat dsi.Strategy

	sessions sessionArena
}

func (s *wireSystem) Name() string { return s.label }

func (s *wireSystem) CycleLen() int { return s.lay.ProbeCycle() }

// mint assembles a throwaway byte-level session (uncounted: arena
// mints count at the acquire site).
func (s *wireSystem) mint() *sessionAdapter {
	rx, err := station.NewWireReceiver(s.lay, 1, s.src, 0, nil)
	if err != nil {
		panic(fmt.Sprintf("experiment: wire receiver: %v", err))
	}
	sess, err := dsi.Open(s.x, dsi.WithReceiver(rx))
	if err != nil {
		panic(fmt.Sprintf("experiment: opening wire session: %v", err))
	}
	return &sessionAdapter{s: sess, strat: s.strat}
}

func (s *wireSystem) Window(w spatial.Rect, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats) {
	return s.mint().Window(w, probe, loss)
}

func (s *wireSystem) KNN(q spatial.Point, k int, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats) {
	return s.mint().KNN(q, k, probe, loss)
}

// AcquireSession returns worker's pinned byte-level session.
func (s *wireSystem) AcquireSession(worker int) QuerySession {
	return s.sessions.acquire(worker, func() QuerySession {
		dsiSessionsMinted.Add(1)
		return s.mint()
	})
}

// ReleaseSession checks the session back into its worker slot.
func (s *wireSystem) ReleaseSession(worker int, q QuerySession) { s.sessions.release(worker, q) }

// staleWireSystem tunes every query in with a catalog one directory
// version behind the source's committed swap: a fresh receiver per
// query, which must fetch the current directory over the lossy air
// before anything decodes. Sessions are deliberately not reused — the
// staleness is the point.
type staleWireSystem struct {
	label string
	x     *dsi.Index
	stale *dsi.Layout // the version-1 catalog clients tune in with
	onAir *dsi.Layout // the committed layout (probe slots scale to it)
	src   station.PacketSource
	strat dsi.Strategy
}

func (s *staleWireSystem) Name() string { return s.label }

func (s *staleWireSystem) CycleLen() int { return s.onAir.ProbeCycle() }

func (s *staleWireSystem) Window(w spatial.Rect, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats) {
	rx, err := station.NewWireReceiver(s.stale, 1, s.src, probe, loss)
	if err != nil {
		panic(fmt.Sprintf("experiment: stale wire receiver: %v", err))
	}
	sess, err := dsi.Open(s.x, dsi.WithReceiver(rx))
	if err != nil {
		panic(fmt.Sprintf("experiment: opening stale wire session: %v", err))
	}
	return sess.Window(w)
}

func (s *staleWireSystem) KNN(q spatial.Point, k int, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats) {
	rx, err := station.NewWireReceiver(s.stale, 1, s.src, probe, loss)
	if err != nil {
		panic(fmt.Sprintf("experiment: stale wire receiver: %v", err))
	}
	sess, err := dsi.Open(s.x, dsi.WithReceiver(rx))
	if err != nil {
		panic(fmt.Sprintf("experiment: opening stale wire session: %v", err))
	}
	return sess.KNN(q, k, s.strat)
}

// wireLossBed assembles the experiment's fixed infrastructure: the
// uniform sharded layout with its static transmitter, and a
// rebroadcaster that has committed a swap from that layout to the
// Zipf-trained plan (the stale arm's source).
func wireLossBed(p Params) (x *dsi.Index, lay0, lay1 *dsi.Layout, mt *station.Transmitter, rb *station.Rebroadcaster) {
	ds := p.Dataset()
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, ObjectBytes: p.ObjectBytes, ReserveMCPtr: true})
	if err != nil {
		panic(err)
	}
	uniform, err := sched.Uniform(x, WireLossChannels-1)
	if err != nil {
		panic(err)
	}
	lay0, err = uniform.Layout(DefaultSwitchSlots)
	if err != nil {
		panic(err)
	}
	mt, err = station.NewMultiTransmitter(lay0)
	if err != nil {
		panic(err)
	}

	prof := shardProfileFor(x, p.workload(ds), WireLossTheta)
	plan1, err := sched.Partition(prof, WireLossChannels-1)
	if err != nil {
		panic(err)
	}
	lay1, err = plan1.Layout(DefaultSwitchSlots)
	if err != nil {
		panic(err)
	}
	rb, err = station.NewRebroadcaster(lay0)
	if err != nil {
		panic(err)
	}
	seam, err := rb.Stage(lay1, 0)
	if err != nil {
		panic(err)
	}
	horizon := seam
	for ch := 0; ch < lay0.Channels(); ch++ {
		if s, ok := rb.SeamOf(ch); ok && s > horizon {
			horizon = s
		}
	}
	if !rb.Commit(horizon) {
		panic("experiment: wireloss commit refused past every seam")
	}
	return x, lay0, lay1, mt, rb
}

// WireLoss sweeps the Gilbert-Elliott loss rate over the three arms
// and reports window latency and tuning. The Sim and Wire series are
// expected to coincide exactly at every theta; the stale arm pays the
// directory fetch (and, under loss, its retries) on top.
func WireLoss(p Params) Result {
	p = p.withDefaults()
	ds := p.Dataset()
	x, lay0, lay1, mt, rb := wireLossBed(p)

	sim := &MultiDSISystem{Label: "Sim", Lay: lay0, Strategy: dsi.Conservative}
	wire := &wireSystem{label: "Wire", x: x, lay: lay0, src: mt, strat: dsi.Conservative}
	stale := &staleWireSystem{label: "Wire stale", x: x, stale: lay0, onAir: lay1, src: rb, strat: dsi.Conservative}

	mk := func(id, title, y string) Figure {
		return Figure{ID: id, Title: title, XLabel: "loss rate theta", YLabel: y}
	}
	figs := []Figure{
		mk("wireloss-a", "Byte-level reception: window-query access latency", "access latency (bytes)"),
		mk("wireloss-b", "Byte-level reception: window-query tuning time", "tuning time (bytes)"),
	}
	type point struct{ sim, wire, stale Metrics }
	pts := sweep(len(WireLossThetas), func(i int) point {
		wl := p.workload(ds)
		wl.Theta = WireLossThetas[i]
		wl.BurstLen = Table1GEBurstLen
		return point{
			sim:   wl.RunWindow(sim, DefaultWinSideRatio),
			wire:  wl.RunWindow(wire, DefaultWinSideRatio),
			stale: wl.RunWindow(stale, DefaultWinSideRatio),
		}
	})
	for i, theta := range WireLossThetas {
		for f := range figs {
			figs[f].X = append(figs[f].X, theta)
		}
		pt := pts[i]
		figs[0].AddPoint("Sim", pt.sim.LatencyBytes)
		figs[0].AddPoint("Wire", pt.wire.LatencyBytes)
		figs[0].AddPoint("Wire stale", pt.stale.LatencyBytes)
		figs[1].AddPoint("Sim", pt.sim.TuningBytes)
		figs[1].AddPoint("Wire", pt.wire.TuningBytes)
		figs[1].AddPoint("Wire stale", pt.stale.TuningBytes)
	}
	return Result{Figures: figs}
}
