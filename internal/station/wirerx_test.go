package station

import (
	"math/rand"
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/spatial"
	"dsi/internal/wire"
)

// wireTestBed builds a sharded broadcast whose tables carry
// multi-channel pointers (ReserveMCPtr) so the wire formats encode.
func wireTestBed(t testing.TB, n int, seed int64, bounds func(nf int) []int) (*dataset.Dataset, *dsi.Index, *dsi.Layout) {
	t.Helper()
	ds := dataset.Uniform(n, 7, seed)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels:    4,
		Scheduler:   dsi.SchedShard,
		SwitchSlots: 2,
		ShardBounds: bounds(x.NF),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, x, lay
}

func quarterBounds(nf int) []int { return []int{0, nf / 4, nf / 2, nf} }
func skewedBounds(nf int) []int  { return []int{0, nf / 8, 7 * nf / 8, nf} }

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWireReceiverBitIdenticalToSim is the tentpole regression: over a
// static transmitter, byte-level reception answers every query with
// exactly the results and cost metrics of the simulator fast path —
// loss or no loss, window or kNN, across session reuse.
func TestWireReceiverBitIdenticalToSim(t *testing.T) {
	ds, x, lay := wireTestBed(t, 280, 409, quarterBounds)
	mt, err := NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewWireReceiver(lay, 1, mt, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	wireSess, err := dsi.Open(x, dsi.WithReceiver(rx))
	if err != nil {
		t.Fatal(err)
	}
	simSess, err := dsi.Open(x, dsi.WithLayout(lay))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	side := int(ds.Curve.Side())
	for trial := 0; trial < 16; trial++ {
		probe := rng.Int63n(int64(lay.ProbeCycle()))
		var theta float64
		if trial%2 == 1 {
			theta = 0.3
		}
		seed := rng.Int63()
		mkLoss := func() *broadcast.LossModel {
			if theta == 0 {
				return nil
			}
			m := broadcast.GilbertForTheta(theta, 4, seed)
			m.AffectsData = true
			return m
		}
		simSess.Tune(probe, mkLoss())
		wireSess.Tune(probe, mkLoss())
		if trial%3 == 2 {
			q := spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}
			k := 1 + rng.Intn(6)
			wantIDs, wantSt := simSess.KNN(q, k, dsi.Conservative)
			gotIDs, gotSt := wireSess.KNN(q, k, dsi.Conservative)
			if !equalIDs(gotIDs, wantIDs) || gotSt != wantSt {
				t.Fatalf("trial %d: wire kNN (%v,%+v) != sim (%v,%+v)", trial, gotIDs, gotSt, wantIDs, wantSt)
			}
		} else {
			w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 30, ds.Curve.Side())
			wantIDs, wantSt := simSess.Window(w)
			gotIDs, gotSt := wireSess.Window(w)
			if !equalIDs(gotIDs, wantIDs) || gotSt != wantSt {
				t.Fatalf("trial %d: wire window (%v,%+v) != sim (%v,%+v)", trial, gotIDs, gotSt, wantIDs, wantSt)
			}
		}
	}
}

// TestWireReceiverSingleChannelBitIdentical runs the classic single-
// channel byte stream (Transmitter, wire.DecodeTable) against the
// classic simulator client.
func TestWireReceiverSingleChannelBitIdentical(t *testing.T) {
	ds := dataset.Uniform(220, 7, 11)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := NewTransmitter(x)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	side := int(ds.Curve.Side())
	for trial := 0; trial < 10; trial++ {
		probe := rng.Int63n(int64(x.Prog.Len()))
		seed := rng.Int63()
		mkLoss := func() *broadcast.LossModel {
			if trial%2 == 0 {
				return nil
			}
			return broadcast.NewLossModel(0.4, seed)
		}
		rx, err := NewWireReceiver(x.SingleLayout(), 1, tx, probe, mkLoss())
		if err != nil {
			t.Fatal(err)
		}
		wireSess, err := dsi.Open(x, dsi.WithReceiver(rx))
		if err != nil {
			t.Fatal(err)
		}
		sim := dsi.NewMultiClient(x.SingleLayout(), probe, mkLoss())
		w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 35, ds.Curve.Side())
		wantIDs, wantSt := sim.Window(w)
		gotIDs, gotSt := wireSess.Window(w)
		if !equalIDs(gotIDs, wantIDs) || gotSt != wantSt {
			t.Fatalf("trial %d: wire (%v,%+v) != sim (%v,%+v)", trial, gotIDs, gotSt, wantIDs, wantSt)
		}
	}
}

// TestSingleLayoutStationBitIdenticalToSim is the regression for the
// single-channel station: dsistation -sched single serves
// NewMultiTransmitter(FEC)(x.SingleLayout()), and its network clients
// decode that stream as a one-channel layout. Window and kNN queries
// through WireReceiver (plain, with and without loss) and FECReceiver
// (Reed-Solomon) must return the simulator's ids at the simulator's
// tuning cost and latency — on a coded air the simulator's logical
// clock carried onto the physical one, whose parity slots a query
// dozes across. The unit-factor sizing at capacity 32 fills its table
// packets so tightly that only the classic table format fits.
func TestSingleLayoutStationBitIdenticalToSim(t *testing.T) {
	ds := dataset.Uniform(220, 7, 11)
	side := int(ds.Curve.Side())
	for _, cfg := range []dsi.Config{{Capacity: 64}, {Capacity: 32, Sizing: dsi.SizingUnitFactor}} {
		x, err := dsi.Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lay := x.SingleLayout()
		for _, code := range []wire.FECConfig{{}, rsCode()} {
			tx, err := NewMultiTransmitterFEC(lay, code)
			if err != nil {
				t.Fatalf("cfg %+v code %+v: %v", cfg, code, err)
			}
			geo, err := CodedGeometry(lay, code)
			if err != nil {
				t.Fatal(err)
			}
			c := geo[0]
			phys := func(abs int64) int64 {
				l := int64(len(c.Log2Phys))
				return abs/l*int64(c.PhysLen) + int64(c.Log2Phys[abs%l])
			}
			rng := rand.New(rand.NewSource(6))
			for trial := 0; trial < 12; trial++ {
				probe := rng.Int63n(int64(x.Prog.Len()))
				seed := rng.Int63()
				mkLoss := func() *broadcast.LossModel {
					if code.Enabled() || trial%4 < 2 {
						return nil
					}
					return broadcast.NewLossModel(0.4, seed)
				}
				var rx dsi.Receiver
				if code.Enabled() {
					rx, err = NewFECReceiver(lay, 1, tx, code, phys(probe), nil)
				} else {
					rx, err = NewWireReceiver(lay, 1, tx, probe, mkLoss())
				}
				if err != nil {
					t.Fatal(err)
				}
				sess, err := dsi.Open(x, dsi.WithReceiver(rx))
				if err != nil {
					t.Fatal(err)
				}
				sim, err := dsi.Open(x, dsi.WithReceiver(dsi.NewSimReceiver(lay, probe, mkLoss())))
				if err != nil {
					t.Fatal(err)
				}
				var gotIDs, wantIDs []int
				var got, want broadcast.Stats
				if trial%2 == 0 {
					w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 35, ds.Curve.Side())
					wantIDs, want = sim.Window(w)
					gotIDs, got = sess.Window(w)
				} else {
					q := spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}
					wantIDs, want = sim.KNN(q, 5, dsi.Conservative)
					gotIDs, got = sess.KNN(q, 5, dsi.Conservative)
				}
				wantLat := phys(probe+want.LatencyPackets-1) + 1 - phys(probe)
				if !equalIDs(gotIDs, wantIDs) || got.TuningPackets != want.TuningPackets ||
					got.LatencyPackets != wantLat || got.Switches != want.Switches {
					t.Fatalf("cfg %+v code %+v trial %d: station (%v,%+v) != sim (%v,%+v, latency %d on air)",
						cfg, code, trial, gotIDs, got, wantIDs, want, wantLat)
				}
			}
		}
	}
}

// TestWireReceiverResyncAcrossSwap drives the drift experiment's
// resync behavior byte-level: a rebroadcaster swaps its shard
// directory at a cycle seam while queries are in flight; clients learn
// the bump from the versioned directory — which itself crosses the
// lossy air — re-seed mid-query, and still answer exactly.
func TestWireReceiverResyncAcrossSwap(t *testing.T) {
	ds, x, lay0 := wireTestBed(t, 260, 413, quarterBounds)
	lay1, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: skewedBounds(x.NF),
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	side := int(ds.Curve.Side())
	resynced := 0
	for trial := 0; trial < 12; trial++ {
		rb, err := NewRebroadcaster(lay0)
		if err != nil {
			t.Fatal(err)
		}
		probe := rng.Int63n(int64(lay0.ProbeCycle()))
		if _, err := rb.Stage(lay1, probe); err != nil {
			t.Fatal(err)
		}
		var loss *broadcast.LossModel
		if trial%2 == 1 {
			loss = broadcast.GilbertForTheta(0.25, 4, rng.Int63())
			loss.AffectsData = true
		}
		rx, err := NewWireReceiver(lay0, 1, rb, probe, loss)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := dsi.Open(x, dsi.WithReceiver(rx))
		if err != nil {
			t.Fatal(err)
		}
		w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 50, ds.Curve.Side())
		got, _ := sess.Window(w)
		want := ds.WindowBrute(w)
		if !equalIDs(got, want) {
			t.Fatalf("trial %d: window across swap returned %d objects, want %d", trial, len(got), len(want))
		}
		if rx.Version() == 2 {
			resynced++
			if sess.Layout().ShardBounds()[1] != skewedBounds(x.NF)[1] {
				t.Fatalf("trial %d: resynced session still on old bounds %v", trial, sess.Layout().ShardBounds())
			}
		}
	}
	if resynced == 0 {
		t.Fatal("no trial crossed the seam with a resync; the test exercises nothing")
	}
}

// TestWireReceiverStaleTuneIn tunes a client whose catalog is one
// directory version behind a fully committed swap: every payload is
// initially undecodable, the current directory must be received over
// the lossy air, and the query then converges on the new schedule with
// exact results.
func TestWireReceiverStaleTuneIn(t *testing.T) {
	ds, x, lay0 := wireTestBed(t, 260, 421, quarterBounds)
	lay1, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: skewedBounds(x.NF),
	})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewRebroadcaster(lay0)
	if err != nil {
		t.Fatal(err)
	}
	seam, err := rb.Stage(lay1, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Commit once every channel has crossed its seam.
	horizon := seam
	for ch := 0; ch < lay0.Channels(); ch++ {
		if s, ok := rb.SeamOf(ch); ok && s > horizon {
			horizon = s
		}
	}
	if !rb.Commit(horizon) {
		t.Fatal("commit refused past every seam")
	}

	rng := rand.New(rand.NewSource(8))
	side := int(ds.Curve.Side())
	for trial := 0; trial < 10; trial++ {
		probe := horizon + rng.Int63n(int64(lay1.ProbeCycle()))
		var loss *broadcast.LossModel
		if trial%2 == 1 {
			loss = broadcast.GilbertForTheta(0.3, 4, rng.Int63())
		}
		rx, err := NewWireReceiver(lay0, 1, rb, probe, loss)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := dsi.Open(x, dsi.WithReceiver(rx))
		if err != nil {
			t.Fatal(err)
		}
		w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 45, ds.Curve.Side())
		got, _ := sess.Window(w)
		want := ds.WindowBrute(w)
		if !equalIDs(got, want) {
			t.Fatalf("trial %d: stale tune-in returned %d objects, want %d", trial, len(got), len(want))
		}
		if rx.Version() != 2 {
			t.Fatalf("trial %d: stale receiver still at version %d", trial, rx.Version())
		}
	}
}

// faultSource wraps a PacketSource with deterministic payload
// corruption for the receiver fault-path tests.
type faultSource struct {
	PacketSource
	mutate    func(ch int, abs int64, p Packet) (Packet, bool)
	mutateDir func(abs int64, dir []byte) []byte
	mutations int
}

func (f *faultSource) PacketAt(ch int, abs int64) (Packet, uint32) {
	p, v := f.PacketSource.PacketAt(ch, abs)
	if f.mutate != nil {
		var hit bool
		if p, hit = f.mutate(ch, abs, p); hit {
			f.mutations++
		}
	}
	return p, v
}

func (f *faultSource) DirectoryAt(abs int64) ([]byte, uint32) {
	d, v := f.PacketSource.DirectoryAt(abs)
	if f.mutateDir != nil {
		d = f.mutateDir(abs, d)
	}
	return d, v
}

// runFaultWindows answers windows through a wire receiver over the
// given source and cross-checks every result against brute force: the
// convergence-not-wedging contract of the fault paths.
func runFaultWindows(t *testing.T, ds *dataset.Dataset, x *dsi.Index, lay *dsi.Layout, src PacketSource, trials int) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	side := int(ds.Curve.Side())
	for trial := 0; trial < trials; trial++ {
		probe := rng.Int63n(int64(lay.ProbeCycle()))
		rx, err := NewWireReceiver(lay, 1, src, probe, nil)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := dsi.Open(x, dsi.WithReceiver(rx))
		if err != nil {
			t.Fatal(err)
		}
		w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 40, ds.Curve.Side())
		got, _ := sess.Window(w)
		want := ds.WindowBrute(w)
		if !equalIDs(got, want) {
			t.Fatalf("trial %d: faulted stream returned %d objects, want %d", trial, len(got), len(want))
		}
	}
}

// TestWireReceiverTruncatedTablePackets truncates a rotating subset of
// index-table packets mid-stream: the decode layer must reject the
// short tables and the client must converge through retries.
func TestWireReceiverTruncatedTablePackets(t *testing.T) {
	ds, x, lay := wireTestBed(t, 240, 431, quarterBounds)
	mt, err := NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	// The modulus is coprime to the index channel's cycle length, so
	// the corrupted slots rotate across cycles and every table is
	// eventually readable (a modulus dividing the cycle would corrupt
	// the same tables forever — a legitimate wedge no client survives).
	src := &faultSource{PacketSource: mt, mutate: func(ch int, abs int64, p Packet) (Packet, bool) {
		if p.Flags&flagIndex != 0 && abs%7 == 0 && len(p.Payload) > 4 {
			p.Payload = p.Payload[:len(p.Payload)/2]
			return p, true
		}
		return p, false
	}}
	runFaultWindows(t, ds, x, lay, src, 6)
	if src.mutations == 0 {
		t.Fatal("no table packet was truncated; the fault path went unexercised")
	}
}

// TestWireReceiverMislabelledChannelID flips the channel id of table
// entries on a rotating subset of packets. A mislabelled pointer maps
// to a frame in another shard whose HC span cannot contain the entry's
// HC value, so the receiver must reject the table instead of absorbing
// a false frame fact — and the client must converge through retries.
func TestWireReceiverMislabelledChannelID(t *testing.T) {
	ds, x, lay := wireTestBed(t, 240, 433, quarterBounds)
	mt, err := NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	// First table packet carries the own-HC (16B) then entries of
	// 16+3 bytes: the first entry's channel byte sits at offset 32.
	// Modulus coprime to the index cycle, as in the truncation test.
	src := &faultSource{PacketSource: mt, mutate: func(ch int, abs int64, p Packet) (Packet, bool) {
		if p.Flags&flagIndex != 0 && abs%11 == 0 && len(p.Payload) > 33 {
			mutated := append([]byte(nil), p.Payload...)
			mutated[32] ^= 1
			p.Payload = mutated
			return p, true
		}
		return p, false
	}}
	runFaultWindows(t, ds, x, lay, src, 6)
	if src.mutations == 0 {
		t.Fatal("no channel id was mislabelled; the fault path went unexercised")
	}
}

// TestWireReceiverLostDirectoryAcrossSwap corrupts the directory
// payload for a window after the seam: Poll keeps paying for and
// rejecting the broken directory, the client stays on the old version
// (its channels still stream it through the transition), and once the
// directory heals the client re-seeds and completes exactly.
func TestWireReceiverLostDirectoryAcrossSwap(t *testing.T) {
	ds, x, lay0 := wireTestBed(t, 240, 439, quarterBounds)
	lay1, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: skewedBounds(x.NF),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(78))
	side := int(ds.Curve.Side())
	resynced := 0
	for trial := 0; trial < 8; trial++ {
		rb, err := NewRebroadcaster(lay0)
		if err != nil {
			t.Fatal(err)
		}
		probe := rng.Int63n(int64(lay0.ProbeCycle()))
		seam, err := rb.Stage(lay1, probe)
		if err != nil {
			t.Fatal(err)
		}
		healAt := seam + int64(2*lay0.ChanLen(0))
		src := &faultSource{PacketSource: rb, mutateDir: func(abs int64, dir []byte) []byte {
			if dir != nil && abs >= seam && abs < healAt {
				bad := append([]byte(nil), dir...)
				bad[0] ^= 0xff // break the magic: reception "fails"
				return bad
			}
			return dir
		}}
		rx, err := NewWireReceiver(lay0, 1, src, probe, nil)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := dsi.Open(x, dsi.WithReceiver(rx))
		if err != nil {
			t.Fatal(err)
		}
		w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 55, ds.Curve.Side())
		got, _ := sess.Window(w)
		want := ds.WindowBrute(w)
		if !equalIDs(got, want) {
			t.Fatalf("trial %d: lost-directory run returned %d objects, want %d", trial, len(got), len(want))
		}
		if rx.Version() == 2 {
			resynced++
		}
	}
	if resynced == 0 {
		t.Fatal("no trial survived into the healed directory; the test exercises nothing")
	}
}
