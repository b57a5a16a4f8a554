package main

import (
	"fmt"
	"time"

	"dsi/internal/dsi"
	"dsi/internal/massive"
)

// The sim workload: closed-loop sessions over dsi.SimReceiver on the
// massive testbed's classic, split and shard layouts, then a massive
// replay of a fixed population on all four testbed arms. No bytes
// exist, so navigation and the replay engine do nearly all the work.
const (
	simLoopShare = 0.6 // share of the window given to the closed loop
	// replayPerSecond sizes the population replayed on each arm: this
	// many clients per second of window takes roughly the rest of it
	// with the testbed's default sizes on two processors.
	replayPerSecond = 70
	// replayChecked is the client-id prefix replayed again through
	// massive.RunReference and compared column by column.
	replayChecked = 40
)

type simInst struct {
	e    *env
	bed  *massive.Testbed
	arms []*massive.Arm // classic, split, shard
}

func setupSim(e *env, dsSeed int64) (instance, error) {
	bed, err := massive.NewTestbed(massive.BedConfig{Seed: dsSeed})
	if err != nil {
		return nil, err
	}
	s := &simInst{e: e, bed: bed}
	for _, a := range bed.Arms {
		if a.Name == "classic" || a.Name == "split" || a.Name == "shard" {
			s.arms = append(s.arms, a)
		}
	}
	if len(s.arms) != 3 {
		return nil, fmt.Errorf("testbed lacks the classic, split and shard arms")
	}
	return s, nil
}

func (s *simInst) close() {}

func (s *simInst) measure(traced bool) (*result, error) {
	e := s.e
	ws := make([]*worker, e.workers)
	sessions := make([][]*dsi.Session, e.workers)
	epoch := time.Now()
	for w := range ws {
		ws[w] = newWorker(s.bed.DS)
		if traced {
			ws[w].tr = newTracer(w, epoch)
		}
		for _, a := range s.arms {
			var opt dsi.Option = dsi.WithLayout(a.Lay)
			if traced {
				opt = dsi.WithReceiver(wrapRx(dsi.NewSimReceiver(a.Lay, 0, nil), ws[w].tr))
			}
			sess, err := dsi.Open(s.bed.X, opt)
			if err != nil {
				return nil, err
			}
			sessions[w] = append(sessions[w], sess)
		}
	}
	side := s.bed.DS.Curve.Side()
	d := time.Duration(simLoopShare * float64(e.window()))
	p0 := readProc()
	elapsed, err := closedLoop(ws, loopConfig{d: d, limit: 6 * d, minQueries: paperPrefix}, e.cal,
		func(w int, wk *worker, id int64) (outcome, error) {
			q := genQuery(e.seed, id, side)
			arm := int(id % int64(len(s.arms)))
			sess := sessions[w][arm]
			probe := int64(q.u * float64(s.arms[arm].Lay.ProbeCycle()))
			return timedQuery(wk, sess, q, probe, nil), nil
		})
	loopWin := since(p0)
	if err != nil {
		return nil, err
	}
	f, err := figuresOf(ws, elapsed)
	if err != nil {
		return nil, err
	}

	// Replay phase: every arm replays the same population; the engine
	// runs its own e.workers goroutines.
	clients := int(replayPerSecond * e.seconds)
	cfg := massive.Config{Clients: clients, Seed: e.seed, Workers: e.workers}
	var rt *tracer
	if traced {
		rt = newTracer(e.workers, epoch)
	}
	rates := map[string]float64{}
	var replaySum float64
	var replayFailed int64
	replays := make([]*massive.Result, len(s.bed.Arms))
	for i, arm := range s.bed.Arms {
		e.cal.burst(calBurst)
		if rt != nil {
			rt.begin(layerRep, "massive.Run."+arm.Name)
		}
		t := time.Now()
		// A replay that panics fails every checked client of its arm
		// and leaves the arm out of the rate.
		panicked := panics(func() { replays[i] = massive.Run(s.bed, arm, cfg) })
		dt := time.Since(t)
		if rt != nil {
			if panicked {
				rt.abort()
			} else {
				rt.end()
			}
		}
		if panicked {
			replays[i] = nil
			replayFailed += replayChecked
			continue
		}
		rate := float64(clients) / dt.Seconds()
		rates[arm.Name] = rate
		replaySum += rate
	}
	e.cal.burst(calBurst)

	tailName := fmt.Sprintf("query_us_p%.0f", 100*f.tailQ)
	res := &result{
		attempted: f.queries + int64(replayChecked*len(s.bed.Arms)),
		verify: func() (int64, error) {
			bad := checkAll(s.bed.DS, e.seed, ws) + replayFailed
			for i, arm := range s.bed.Arms {
				got := replays[i]
				if got == nil {
					continue // counted when the replay panicked
				}
				var ref *massive.Result
				if panics(func() {
					ref = massive.RunReference(s.bed, arm, massive.Config{Clients: replayChecked, Seed: e.seed, Workers: e.workers})
				}) {
					bad += replayChecked
					continue
				}
				for c := 0; c < replayChecked; c++ {
					if got.Lat[c] != ref.Lat[c] || got.Tun[c] != ref.Tun[c] || got.Sw[c] != ref.Sw[c] {
						bad++
					}
				}
			}
			return bad, nil
		},
		workPerS: replaySum,
		opP50:    f.p50,
		opTail:   f.tail,
		named: []named{
			{"queries_per_s", f.perS, "1/s"},
			{"query_us_p50", f.p50, "us"},
			{tailName, f.tail, "us"},
			{"replay_clients_per_s", replaySum, "1/s"},
			{"latency_bytes_p50", f.latP50, "B"},
			{"latency_bytes_p99", f.latP99, "B"},
			{"tuning_bytes_p50", f.tunP50, "B"},
			{"tuning_bytes_p99", f.tunP99, "B"},
		},
	}
	if traced {
		res.trs = append(tracersOf(ws), rt)
		aggs := mergeAggs(res.trs)
		res.layer = map[string]float64{}
		clientLayer(res.layer, aggs, f.queries, loopWin)
		res.layer["dsi.simrx_us_per_query"] = float64(aggs[layerRx].total) / 1e3 / float64(f.queries)
		f.paperLayer(res.layer)
		for name, r := range rates {
			res.layer["massive.clients_per_s."+name] = r
		}
	}
	return res, nil
}
