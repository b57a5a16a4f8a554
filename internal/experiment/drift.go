// The drift experiment: online re-planning under a migrating hot spot,
// end to end across the stack. A Zipf window workload starts with its
// hot head at the beginning of the Hilbert order — the distribution the
// initial shard plan was trained on — and then migrates halfway around
// the HC rank space. The static arm keeps the trained plan on air for
// the whole run (PR 3's offline scheduler); the re-planning arms run
// the online loop: a decayed profiler observes every query, a
// Replanner measures the live plan's drift against the fresh optimum
// at each check, and when the drift crosses the configured ratio the
// broadcast swaps to the fresh plan at a cycle seam — the query in
// flight at the seam re-syncs mid-query via the shard directory
// version bump, later queries tune into the new directory. The fixed
// arm checks every DriftCheckEvery queries; the adaptive arm spends
// the same kind of budget through sched.Cadence, thinning checks out
// over stable stretches and crowding them while measured drift rises.
//
// The replay is byte-level end to end: every query decodes the actual
// packets a station source puts on air through a station.WireReceiver
// — static stretches over each generation's Transmitter with
// per-worker session reuse, and each seam-crossing query over a
// Rebroadcaster holding exactly that staged swap, so the directory
// bump (and its fetch cost) is received over the air rather than
// simulated.
//
// The planning pass is simulation-free (range decomposition and the
// Monge DP only) and runs sequentially before the replay, so the swap
// schedule is part of the experiment's deterministic inputs and the
// replay itself shards across the worker pool with bit-identical
// results at any parallelism — including the control contract that the
// arms are exactly equal before the drift (no replan triggers while
// the live plan matches the load, so the arms execute identical code on
// identical layouts).

package experiment

import (
	"fmt"

	"dsi/internal/broadcast"
	"dsi/internal/dsi"
	"dsi/internal/hilbert"
	"dsi/internal/obs"
	"dsi/internal/sched"
	"dsi/internal/station"
)

// DriftRatios is the replan-trigger sweep: the live plan is swapped out
// when its decayed objective exceeds ratio times the fresh optimum's.
var DriftRatios = []float64{1.2, 1.5, 2.5}

// DriftChannels is the channel-count sweep of the drift experiment.
var DriftChannels = []int{4, 8}

// DriftTheta is the Zipf skew of the drifting workload.
const DriftTheta = 1.2

// DriftCheckEvery is the fixed arm's replan-trigger cadence in queries,
// and the adaptive arm's starting interval.
const DriftCheckEvery = 5

// DriftCadenceMin and DriftCadenceMax bound the adaptive arm's check
// interval (sched.Cadence halves toward Min while measured drift
// rises, doubles toward Max while the plan fits).
const (
	DriftCadenceMin = 2
	DriftCadenceMax = 4 * DriftCheckEvery
)

// driftHalfLifeFactor sizes the profiler's half-life relative to one
// workload phase: half a phase, so a migrated hot spot dominates the
// decayed profile well before the phase ends.
const driftHalfLifeFactor = 0.5

// driftPoint holds one (ratio, channels) cell: per-arm metrics split at
// the drift point, and the swap schedules the online loops produced.
type driftPoint struct {
	PreStatic, PreReplan, PreAdaptive    Metrics
	PostStatic, PostReplan, PostAdaptive Metrics
	// Replans counts directory swaps that took effect during the fixed
	// arm's run; FirstReplan is the global query index whose execution
	// crosses the first seam (-1 when no swap triggered); Drift is the
	// measured objective ratio at the first trigger; Checks is the
	// planning passes spent.
	Replans     int
	FirstReplan int
	Drift       float64
	Checks      int
	// The adaptive-cadence arm's counters, same meanings.
	AdaptiveReplans int
	AdaptiveFirst   int
	AdaptiveChecks  int
}

// driftSchedule is the output of the sequential planning pass: the
// layouts that were on air with their static byte sources and, per
// query, the layout at its tune-in plus the mid-query re-sync target
// (-1 for none).
type driftSchedule struct {
	x        *dsi.Index
	lays     []*dsi.Layout
	mts      []*station.Transmitter
	planAt   []int
	resyncTo []int
}

// finish builds the static transmitter of every layout generation the
// plan put on air (concurrency-safe read-only sources the replay
// workers share).
func (s *driftSchedule) finish() *driftSchedule {
	s.mts = make([]*station.Transmitter, len(s.lays))
	for i, lay := range s.lays {
		mt, err := station.NewMultiTransmitter(lay)
		if err != nil {
			panic(fmt.Sprintf("experiment: drift transmitter: %v", err))
		}
		s.mts[i] = mt
	}
	return s
}

// staticSchedule pins every query to the initial layout.
func staticSchedule(x *dsi.Index, lay *dsi.Layout, n int) *driftSchedule {
	s := &driftSchedule{
		x:        x,
		lays:     []*dsi.Layout{lay},
		planAt:   make([]int, n),
		resyncTo: make([]int, n),
	}
	for i := range s.resyncTo {
		s.resyncTo[i] = -1
	}
	return s.finish()
}

// driftBase is the ratio-independent half of one channel count's
// cells: the workload phases, the trained plan, and the static arm's
// replayed metrics — shared across the trigger-ratio sweep (the same
// hoisting the sharded experiment applies to its theta profiles).
type driftBase struct {
	x       *dsi.Index
	queries []windowQuery
	prof0   *sched.Profile
	plan0   *sched.Plan
	lay0    *dsi.Layout
	reg     *obs.Registry

	preStatic, postStatic Metrics
}

// newDriftBase trains the initial plan on the pre-drift distribution,
// assembles the two-phase evaluation workload, and replays the static
// arm once.
func newDriftBase(x *dsi.Index, wl *Workload, channels int) *driftBase {
	n := wl.Queries
	shift := x.DS.N() / 2

	train := wl.zipfShiftWindows(DriftTheta, DefaultWinSideRatio, 7000, n*ShardedTrainFactor, 0)
	pre := wl.zipfShiftWindows(DriftTheta, DefaultWinSideRatio, 0, n, 0)
	post := wl.zipfShiftWindows(DriftTheta, DefaultWinSideRatio, 500, n, shift)
	queries := append(append(make([]windowQuery, 0, 2*n), pre...), post...)

	prof0 := shardProfile(x, train)
	plan0, err := sched.Partition(prof0, channels-1)
	if err != nil {
		panic(err)
	}
	lay0, err := plan0.Layout(DefaultSwitchSlots)
	if err != nil {
		panic(err)
	}
	b := &driftBase{x: x, queries: queries, prof0: prof0, plan0: plan0, lay0: lay0, reg: wl.Obs}
	static := staticSchedule(x, lay0, len(queries))
	b.preStatic = wl.runDrift(static, queries, 0, n)
	b.postStatic = wl.runDrift(static, queries, n, 2*n)
	return b
}

// driftPlanStats is what one online planning pass produced.
type driftPlanStats struct {
	replans int
	first   int
	drift   float64
	checks  int
}

// driftPlan is the sequential planning pass: the transmitter's online
// loop. It is simulation-free — each query contributes its HC
// decomposition to the decayed profile; whenever the step policy says
// so, the Replanner compares the live plan against the fresh cut. A
// trigger swaps the broadcast at the next seam: the query running at
// that moment re-syncs mid-flight, queries after it tune into the new
// directory. step receives the measured drift ratio of a check and
// returns the interval (in queries) to the next one — a fixed constant
// for the classic arm, sched.Cadence.Observe for the adaptive one.
func driftPlan(b *driftBase, n int, ratio float64, initial int, step func(drift float64) int) (*driftSchedule, driftPlanStats) {
	x := b.x
	queries := b.queries
	st := driftPlanStats{first: -1}
	sch := &driftSchedule{
		x:        x,
		lays:     []*dsi.Layout{b.lay0},
		planAt:   make([]int, len(queries)),
		resyncTo: make([]int, len(queries)),
	}

	op := sched.NewOnlineProfiler(x, driftHalfLifeFactor*float64(n))
	op.Seed(b.prof0, 1)
	var rp sched.Replanner
	rp.SetObs(obs.NewSchedMetrics(b.reg))
	snap := sched.NewProfile(x)
	live := b.plan0
	curve := x.DS.Curve
	var ranges []hilbert.Range
	cur, pending := 0, -1
	nextCheck := initial
	for i, q := range queries {
		sch.planAt[i] = cur
		sch.resyncTo[i] = -1
		if pending >= 0 {
			sch.resyncTo[i] = pending
			cur = pending // on air when the next query tunes in
			pending = -1
		}
		rect, ok := curve.ClampRect(q.w.MinX, q.w.MinY, q.w.MaxX, q.w.MaxY)
		if ok {
			ranges = curve.AppendRangesFunc(ranges[:0], rect.Classify)
			op.Observe(ranges, 1)
		} else {
			op.Observe(nil, 1)
		}
		if i+1 != nextCheck {
			continue
		}
		fresh, drift, trig, err := rp.Replan(op.Snapshot(snap), live, ratio)
		if err != nil {
			panic(err)
		}
		st.checks++
		nextCheck = i + 1 + step(drift)
		if !trig || i+1 >= len(queries) {
			continue
		}
		lay, err := fresh.Layout(DefaultSwitchSlots)
		if err != nil {
			panic(err)
		}
		live = fresh
		sch.lays = append(sch.lays, lay)
		pending = len(sch.lays) - 1
		st.replans++
		if st.first < 0 {
			st.first = i + 1
			st.drift = drift
		}
	}
	return sch.finish(), st
}

// driftCell evaluates one trigger ratio over a shared base: the fixed
// check cadence and the adaptive one, each planned sequentially and
// replayed byte-level.
func driftCell(b *driftBase, wl *Workload, ratio float64) driftPoint {
	n := wl.Queries
	queries := b.queries
	pt := driftPoint{PreStatic: b.preStatic, PostStatic: b.postStatic}

	fixed, fst := driftPlan(b, n, ratio, DriftCheckEvery,
		func(float64) int { return DriftCheckEvery })
	pt.Replans, pt.FirstReplan, pt.Drift, pt.Checks = fst.replans, fst.first, fst.drift, fst.checks
	pt.PreReplan = wl.runDrift(fixed, queries, 0, n)
	pt.PostReplan = wl.runDrift(fixed, queries, n, 2*n)

	cad := sched.NewCadence(DriftCheckEvery, DriftCadenceMin, DriftCadenceMax)
	adaptive, ast := driftPlan(b, n, ratio, cad.Interval(), cad.Observe)
	pt.AdaptiveReplans, pt.AdaptiveFirst, pt.AdaptiveChecks = ast.replans, ast.first, ast.checks
	pt.PreAdaptive = wl.runDrift(adaptive, queries, 0, n)
	pt.PostAdaptive = wl.runDrift(adaptive, queries, n, 2*n)
	return pt
}

// driftSession is the per-worker replay state: one long-lived
// byte-level session per layout generation that was on air, minted
// lazily over the schedule's shared transmitters and re-tuned between
// queries.
type driftSession struct {
	sch  *driftSchedule
	reg  *obs.Registry
	sess []*sessionAdapter
}

func (s *driftSession) session(idx int) *sessionAdapter {
	if s.sess[idx] == nil {
		var rx dsi.Receiver
		wrx, err := station.NewWireReceiver(s.sch.lays[idx], 1, s.sch.mts[idx], 0, nil)
		if err != nil {
			panic(fmt.Sprintf("experiment: drift wire receiver: %v", err))
		}
		rx = wrx
		if s.reg != nil {
			rx = obs.InstrumentReceiver(rx, obs.NewReceiverMetrics(s.reg, s.sch.lays[idx].Channels()))
		}
		sess, err := dsi.Open(s.sch.x, dsi.WithReceiver(rx))
		if err != nil {
			panic(fmt.Sprintf("experiment: opening drift session: %v", err))
		}
		s.sess[idx] = &sessionAdapter{s: sess}
	}
	return s.sess[idx]
}

// resyncWindow answers one seam-crossing query byte-level: a fresh
// receiver holding the tune-in generation's catalog as directory
// version 1, over a rebroadcaster with exactly that swap staged — the
// seam lands at the first index-channel cycle boundary after the
// probe, so the receiver picks the version bump and the new directory
// off the air mid-query (exactly the machinery a live transmitter
// would exercise).
func (sch *driftSchedule) resyncWindow(reg *obs.Registry, idx, tgt int, q windowQuery, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats) {
	rb, err := station.NewRebroadcaster(sch.lays[idx])
	if err != nil {
		panic(fmt.Sprintf("experiment: drift rebroadcaster: %v", err))
	}
	if reg != nil {
		rb.SetObs(obs.NewStationMetrics(reg, sch.lays[idx].Channels()))
	}
	if _, err := rb.Stage(sch.lays[tgt], probe); err != nil {
		panic(fmt.Sprintf("experiment: drift stage: %v", err))
	}
	var rx dsi.Receiver
	wrx, err := station.NewWireReceiver(sch.lays[idx], 1, rb, probe, loss)
	if err != nil {
		panic(fmt.Sprintf("experiment: drift resync receiver: %v", err))
	}
	rx = wrx
	if reg != nil {
		rx = obs.InstrumentReceiver(rx, obs.NewReceiverMetrics(reg, sch.lays[idx].Channels()))
	}
	sess, err := dsi.Open(sch.x, dsi.WithReceiver(rx))
	if err != nil {
		panic(fmt.Sprintf("experiment: opening drift resync session: %v", err))
	}
	return sess.Window(q.w)
}

// runDrift replays queries [from, to) under the swap schedule on the
// worker pool, averaging metrics in query order (bit-identical at any
// parallelism). Every query decodes actual packets: static stretches
// run through the worker's reusable receiver over that generation's
// transmitter; a query with a re-sync target runs over a staged
// rebroadcaster and crosses the swap seam mid-flight.
func (wl *Workload) runDrift(sch *driftSchedule, queries []windowQuery, from, to int) Metrics {
	if wl.Obs != nil {
		m := obs.NewStationMetrics(wl.Obs, sch.lays[0].Channels())
		for _, mt := range sch.mts {
			mt.SetObs(m)
		}
	}
	return replay(to-from,
		func(int) *driftSession {
			return &driftSession{sch: sch, reg: wl.Obs, sess: make([]*sessionAdapter, len(sch.lays))}
		},
		nil,
		func(s *driftSession, i int) broadcast.Stats {
			gi := from + i
			q := queries[gi]
			idx := sch.planAt[gi]
			probe := int64(q.uProb * float64(sch.lays[idx].ProbeCycle()))
			var got []int
			var st broadcast.Stats
			if tgt := sch.resyncTo[gi]; tgt >= 0 {
				got, st = sch.resyncWindow(wl.Obs, idx, tgt, q, probe, wl.loss(q.seed))
			} else {
				got, st = s.session(idx).Window(q.w, probe, wl.loss(q.seed))
			}
			if wl.Verify {
				want := wl.DS.WindowBrute(q.w)
				if !sameIDs(got, want) {
					panic(fmt.Sprintf("experiment: drift window %v returned %d objects, want %d",
						q.w, len(got), len(want)))
				}
			}
			return st
		})
}

// Drift is the online re-planning experiment: post-drift window latency
// of the re-planning broadcast versus the static plan, swept over the
// replan-trigger ratio per channel count, plus the number of directory
// swaps each trigger setting produced.
//
// Expected shape: before the drift the arms tie exactly (no trigger
// fires, the broadcast never changes). After the hot spot migrates, the
// static plan serves the new hot span from its huge cold shard and its
// latency jumps; the re-planning arm swaps to a plan that gives the
// migrated span short cycles and holds latency near the pre-drift
// level. Lower trigger ratios react faster (more swaps); a ratio high
// enough to never trigger degenerates to the static arm.
func Drift(p Params) Result {
	p = p.withDefaults()
	ds := p.Dataset()
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, ObjectBytes: p.ObjectBytes})
	if err != nil {
		panic(err)
	}
	// The base of each channel count — training, initial plan, and the
	// static arm's full replay — does not depend on the trigger ratio,
	// so it is computed once and shared across that channel count's
	// ratio cells.
	bases := sweep(len(DriftChannels), func(i int) *driftBase {
		return newDriftBase(x, p.workload(ds), DriftChannels[i])
	})
	type cell struct {
		base  *driftBase
		ratio float64
	}
	var cells []cell
	for bi := range DriftChannels {
		for _, r := range DriftRatios {
			cells = append(cells, cell{bases[bi], r})
		}
	}
	pts := sweep(len(cells), func(i int) driftPoint {
		return driftCell(cells[i].base, p.workload(ds), cells[i].ratio)
	})
	var figs []Figure
	for ni, n := range DriftChannels {
		lat := Figure{ID: fmt.Sprintf("drift-lat-%d", n),
			Title:  fmt.Sprintf("Online re-planning (%d channels): post-drift window access latency", n),
			XLabel: "replan trigger ratio", YLabel: "access latency (bytes)"}
		swaps := Figure{ID: fmt.Sprintf("drift-replans-%d", n),
			Title:  fmt.Sprintf("Online re-planning (%d channels): directory swaps per run", n),
			XLabel: "replan trigger ratio", YLabel: "swaps", YFmt: "%.0f"}
		checks := Figure{ID: fmt.Sprintf("drift-checks-%d", n),
			Title:  fmt.Sprintf("Online re-planning (%d channels): planning checks per run", n),
			XLabel: "replan trigger ratio", YLabel: "checks", YFmt: "%.0f"}
		for ri, r := range DriftRatios {
			pt := pts[ni*len(DriftRatios)+ri]
			lat.X = append(lat.X, r)
			swaps.X = append(swaps.X, r)
			checks.X = append(checks.X, r)
			lat.AddPoint("Static", pt.PostStatic.LatencyBytes)
			lat.AddPoint("Replan", pt.PostReplan.LatencyBytes)
			lat.AddPoint("Adaptive", pt.PostAdaptive.LatencyBytes)
			swaps.AddPoint("Replan", float64(pt.Replans))
			swaps.AddPoint("Adaptive", float64(pt.AdaptiveReplans))
			checks.AddPoint("Fixed", float64(pt.Checks))
			checks.AddPoint("Adaptive", float64(pt.AdaptiveChecks))
		}
		figs = append(figs, lat, swaps, checks)
	}
	return Result{Figures: figs}
}
