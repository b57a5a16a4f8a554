package station

import (
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/wire"
)

// TestShardStreamsSelfDescribing: a sharded layout's unequal-cycle
// per-channel streams — hot shards cycling several times faster than
// the cold one — rebuild the complete broadcast metadata, and the
// on-air shard directory hands a receiver exactly the geometry it needs
// to validate the pointers.
func TestShardStreamsSelfDescribing(t *testing.T) {
	ds := dataset.Uniform(180, 7, 47)
	x, err := dsi.Build(ds, dsi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately coprime shard sizes: no cycle is a multiple of
	// another, so the streams exercise genuinely unequal periods.
	bounds := []int{0, 11, 24, x.NF}
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: len(bounds), Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	for ch := 1; ch < lay.Channels(); ch++ {
		for prev := 1; prev < ch; prev++ {
			if lay.ChanLen(ch)%lay.ChanLen(prev) == 0 {
				t.Logf("note: channel %d cycle is a multiple of channel %d's", ch, prev)
			}
		}
	}
	tx, err := NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	// The receiver takes the per-channel geometry from the broadcast's
	// own directory: the codec is exercised through the full
	// transmitter -> decoder pipeline, not just in isolation.
	dir, _ := tx.DirectoryAt(0)
	_, _, entries, err := wire.DecodeDirV(dir)
	if err != nil {
		t.Fatal(err)
	}
	for ch, e := range entries {
		if int(e.CycleSlots) != lay.ChanLen(ch) || int(e.Frames) != lay.FramesOn(ch) {
			t.Fatalf("directory channel %d geometry (%d frames, %d slots), air has (%d, %d)",
				ch, e.Frames, e.CycleSlots, lay.FramesOn(ch), lay.ChanLen(ch))
		}
	}
	checkSelfDescribing(t, lay, wire.FramesOnDir(entries), func(ch, slot int) Packet {
		p, _ := tx.PacketAt(ch, int64(slot))
		return p
	})
}

// TestStaggeredStripeStreams: phase-staggered stripe channels (frames
// wrapped across the cycle seam included) still produce self-describing
// streams.
func TestStaggeredStripeStreams(t *testing.T) {
	ds := dataset.Uniform(150, 6, 41)
	x, err := dsi.Build(ds, dsi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A nonzero switch cost makes the stagger offset a non-multiple of
	// the frame size, so some frames wrap the seam.
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{Channels: 3, Scheduler: dsi.SchedStripe, SwitchSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, s := lay.TablePlace(1); s == 0 {
		t.Fatal("channel 1 is not staggered: pick another geometry")
	}
	tx, err := NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	checkTransmitter(t, tx)
}
