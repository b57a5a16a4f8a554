package netsrv

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/station"
)

// TestDropWithoutRegistry: an unpaced station with no Registry and a
// subscriber that never reads must drop whole batches once the
// subscriber's queue fills, without panicking and without stalling the
// slot clock.
func TestDropWithoutRegistry(t *testing.T) {
	srv, _ := newTestStation(t, nil)
	c, unsubscribe := srv.subscribe(nil)
	defer unsubscribe()
	// Every flush the pacer publishes after the queue is full is a
	// dropped batch; wait for a good number of them.
	const flushSlots = 64 // the unpaced pacer's batch
	target := srv.Now() + int64(streamQueueDepth+16)*flushSlots
	deadline := time.Now().Add(10 * time.Second)
	for srv.Now() < target {
		if time.Now().After(deadline) {
			t.Fatalf("slot clock stalled at %d with a subscriber that never reads", srv.Now())
		}
		time.Sleep(time.Millisecond)
	}
	if n := len(c.q); n != streamQueueDepth {
		t.Fatalf("subscriber queue holds %d flushes, want it full (%d)", n, streamQueueDepth)
	}
}

// fixedSource serves one prebuilt payload on every channel and slot,
// allocating nothing: the flush builder's own costs in isolation.
type fixedSource struct {
	nch     int
	payload []byte
	dir     []byte
}

func (f *fixedSource) PacketAt(ch int, abs int64) (station.Packet, uint32) {
	return station.Packet{Ch: uint8(ch), Slot: uint32(abs % 1000), Payload: f.payload}, 1
}

func (f *fixedSource) DirectoryAt(int64) ([]byte, uint32) { return f.dir, 1 }

func (f *fixedSource) Channels() int { return f.nch }

// TestBuildFlushAllocs: a warm flush allocates its batch set and one
// buffer pair per channel — O(channels), whatever the slot count — and
// the presized buffers carry the same frames a cold flush does.
func TestBuildFlushAllocs(t *testing.T) {
	const nch = 4
	src := &fixedSource{nch: nch, payload: make([]byte, 64), dir: make([]byte, 40)}
	for _, slots := range []int{64, 512} {
		srv, err := New(Config{Source: src, CtrlEvery: 256})
		if err != nil {
			t.Fatal(err)
		}
		cold := srv.buildFlush(slots) // carries control frames at slot 0
		for i := 0; i < 8; i++ {
			srv.buildFlush(slots)
		}
		if n := testing.AllocsPerRun(20, func() { srv.buildFlush(slots) }); n > 1+2*nch {
			t.Errorf("%d-slot flush: %v allocations, want at most %d", slots, n, 1+2*nch)
		}
		// Rewound to slot 0, a warm flush re-emits the cold one's
		// frames byte for byte into its presized buffers.
		srv.abs.Store(0)
		warm := srv.buildFlush(slots)
		for ch := range cold.batches {
			cb, wb := cold.batches[ch], warm.batches[ch]
			if !bytes.Equal(cb.buf, wb.buf) || !slices.Equal(cb.bounds, wb.bounds) ||
				cb.frames != wb.frames || cb.ctrl != wb.ctrl {
				t.Fatalf("%d-slot flush channel %d: warm batch differs from the cold one", slots, ch)
			}
		}
	}
}

// flushSink keeps the benchmarked flushes alive.
var flushSink flushSet

// BenchmarkBuildFlush builds unpaced 64-slot flushes of a station of
// cmd/dsistation's default size (10^4 objects at order 8, 64 B packets,
// 1 KB objects) on a 4-channel split layout, control frames included.
// slots/s counts absolute slots, each one packet per channel.
func BenchmarkBuildFlush(b *testing.B) {
	x, err := dsi.Build(dataset.Uniform(10000, 8, 1), dsi.Config{Capacity: 64, ReserveMCPtr: true})
	if err != nil {
		b.Fatal(err)
	}
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{Channels: 4, Scheduler: dsi.SchedSplit, SwitchSlots: 2})
	if err != nil {
		b.Fatal(err)
	}
	src, err := station.NewMultiTransmitter(lay)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{Source: src, Layout: lay})
	if err != nil {
		b.Fatal(err)
	}
	const flushSlots = 64
	srv.buildFlush(flushSlots)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flushSink = srv.buildFlush(flushSlots)
	}
	b.ReportMetric(float64(b.N*flushSlots)/b.Elapsed().Seconds(), "slots/s")
}
