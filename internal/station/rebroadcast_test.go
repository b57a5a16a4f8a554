package station

import (
	"bytes"
	"sync"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/wire"
)

func buildShardLay(t *testing.T, x *dsi.Index, bounds []int) *dsi.Layout {
	t.Helper()
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: len(bounds), Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

func samePacket(a, b Packet) bool {
	return a.Ch == b.Ch && a.Slot == b.Slot && a.Flags == b.Flags && bytes.Equal(a.Payload, b.Payload)
}

// TestRebroadcastNoSwapBitIdentical is the control contract: with no
// swap staged, the rebroadcaster is packet-for-packet the plain
// MultiTransmitter on every channel, and its directory is the bare
// shard directory at version 1, seam 0.
func TestRebroadcastNoSwapBitIdentical(t *testing.T) {
	ds := dataset.Uniform(180, 7, 61)
	x, err := dsi.Build(ds, dsi.Config{ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	lay := buildShardLay(t, x, []int{0, 11, 24, x.NF})
	tx, err := NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRebroadcaster(lay)
	if err != nil {
		t.Fatal(err)
	}
	for ch := 0; ch < lay.Channels(); ch++ {
		l := lay.ChanLen(ch)
		for abs := 0; abs < 2*l+3; abs++ {
			got, ver := r.PacketAt(ch, int64(abs))
			want := tx.Packet(ch, abs%l)
			if ver != 1 || !samePacket(got, want) {
				t.Fatalf("ch %d abs %d: packet (%+v, v%d) != transmitter %+v", ch, abs, got, ver, want)
			}
		}
	}
	buf, ver := r.DirectoryAt(12345)
	if ver != 1 {
		t.Fatalf("directory: v%d", ver)
	}
	version, seam, _, err := wire.DecodeDirV(buf)
	if err != nil || version != 1 || seam != 0 {
		t.Fatalf("decoded directory v%d seam %d err %v", version, seam, err)
	}
	bare, err := wire.EncodeShardDir(lay)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[wire.DirVHeaderSize:], bare) {
		t.Fatal("versioned directory body differs from the bare directory")
	}
}

// TestRebroadcastIdenticalSwapBitIdentical: a version bump whose new
// directory carries the same shard map (the re-planner found no drift
// worth acting on, but the transmitter rotated the version anyway) must
// leave every packet of every channel unchanged, before, across, and
// after the seam — the wire/station half of the "replanning disabled is
// bit-identical" acceptance criterion.
func TestRebroadcastIdenticalSwapBitIdentical(t *testing.T) {
	ds := dataset.Uniform(200, 7, 67)
	x, err := dsi.Build(ds, dsi.Config{ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int{0, 17, 60, x.NF}
	lay1 := buildShardLay(t, x, bounds)
	lay2 := buildShardLay(t, x, bounds)
	tx, err := NewMultiTransmitter(lay1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRebroadcaster(lay1)
	if err != nil {
		t.Fatal(err)
	}
	seam, err := r.Stage(lay2, 100)
	if err != nil {
		t.Fatal(err)
	}
	maxSeam := seam
	for ch := 0; ch < lay1.Channels(); ch++ {
		if s, ok := r.SeamOf(ch); ok && s > maxSeam {
			maxSeam = s
		}
	}
	check := func() {
		for ch := 0; ch < lay1.Channels(); ch++ {
			l := lay1.ChanLen(ch)
			for abs := int64(0); abs < maxSeam+2*int64(l); abs++ {
				got, _ := r.PacketAt(ch, abs)
				want := tx.Packet(ch, int(abs%int64(l)))
				if !samePacket(got, want) {
					t.Fatalf("ch %d abs %d: identical-bounds swap changed the stream", ch, abs)
				}
			}
		}
	}
	check()
	if r.Commit(maxSeam - 1) {
		t.Fatal("committed before every channel crossed its seam")
	}
	if !r.Commit(maxSeam) {
		t.Fatal("commit refused after the transition window")
	}
	if r.Version() != 2 {
		t.Fatalf("version %d after commit", r.Version())
	}
	check()
}

// TestRebroadcastTransitionWindow stages a genuinely different shard
// map and walks the transition: the index channel cuts over at the
// global seam while data channels finish their old cycles, so both
// directory versions are on air simultaneously; after the last seam the
// new streams are self-describing under the new directory; and a stale
// receiver scanning the new streams with the old directory is rejected,
// then converges by re-fetching the directory.
func TestRebroadcastTransitionWindow(t *testing.T) {
	ds := dataset.Uniform(180, 7, 71)
	x, err := dsi.Build(ds, dsi.Config{ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	oldB := []int{0, x.NF / 3, 2 * (x.NF / 3), x.NF}
	newB := []int{0, 9, 21, x.NF}
	oldLay := buildShardLay(t, x, oldB)
	newLay := buildShardLay(t, x, newB)
	oldTx, err := NewMultiTransmitter(oldLay)
	if err != nil {
		t.Fatal(err)
	}
	newTx, err := NewMultiTransmitter(newLay)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRebroadcaster(oldLay)
	if err != nil {
		t.Fatal(err)
	}
	now := int64(17)
	swap, err := r.Stage(newLay, now)
	if err != nil {
		t.Fatal(err)
	}
	idxLen := int64(oldLay.ChanLen(0))
	if swap <= now || swap%idxLen != 0 {
		t.Fatalf("global seam %d not an index cycle boundary after %d", swap, now)
	}

	// Per-channel seams: first old-cycle boundary at or after the swap;
	// the cold shard's long cycle must outlast the index channel's.
	mixed := false
	var maxSeam int64
	for ch := 0; ch < oldLay.Channels(); ch++ {
		s, ok := r.SeamOf(ch)
		if !ok {
			t.Fatal("no seam during transition")
		}
		l := int64(oldLay.ChanLen(ch))
		if s < swap || s%l != 0 || s-swap >= l {
			t.Fatalf("ch %d seam %d (cycle %d, swap %d) not the first boundary at/after the swap", ch, s, l, swap)
		}
		if s > swap {
			mixed = true
		}
		if s > maxSeam {
			maxSeam = s
		}
	}
	if !mixed {
		t.Fatal("every channel seams exactly at the swap: transition window is empty, pick other bounds")
	}

	// During the window: old packets (old version) before a channel's
	// seam, new packets (new version) after.
	for ch := 0; ch < oldLay.Channels(); ch++ {
		s, _ := r.SeamOf(ch)
		for abs := swap - 5; abs < maxSeam+5; abs++ {
			got, ver := r.PacketAt(ch, abs)
			if abs < s {
				want := oldTx.Packet(ch, int(abs%int64(oldLay.ChanLen(ch))))
				if ver != 1 || !samePacket(got, want) {
					t.Fatalf("ch %d abs %d: pre-seam packet not the old stream (v%d)", ch, abs, ver)
				}
			} else {
				want := newTx.Packet(ch, int((abs-s)%int64(newLay.ChanLen(ch))))
				if ver != 2 || !samePacket(got, want) {
					t.Fatalf("ch %d abs %d: post-seam packet not the new stream (v%d)", ch, abs, ver)
				}
			}
		}
	}

	// The directory announcement leads the data seams: old before the
	// swap, new (with the seam slot) from it.
	if _, ver := r.DirectoryAt(swap - 1); ver != 1 {
		t.Fatalf("pre-swap directory v%d", ver)
	}
	bufNew, ver := r.DirectoryAt(swap)
	if ver != 2 {
		t.Fatalf("post-swap directory v%d", ver)
	}
	version, seam, _, err := wire.DecodeDirV(bufNew)
	if err != nil || version != 2 || seam != swap {
		t.Fatalf("new directory decodes to v%d seam %d err %v", version, seam, err)
	}

	// The old directory contradicts the post-seam air's geometry, so a
	// stale receiver can tell it must fetch the announced one.
	oldDir, _ := oldTx.DirectoryAt(0)
	_, _, oldEntries, err := wire.DecodeDirV(oldDir)
	if err != nil {
		t.Fatal(err)
	}
	stale := false
	for ch, e := range oldEntries {
		stale = stale || int(e.CycleSlots) != newLay.ChanLen(ch)
	}
	if !stale {
		t.Fatal("old directory describes the new air: pick other bounds")
	}
	// Convergence: under the announced directory the post-seam streams
	// are fully self-describing.
	_, _, newEntries, err := wire.DecodeDirV(bufNew)
	if err != nil {
		t.Fatal(err)
	}
	checkSelfDescribing(t, newLay, wire.FramesOnDir(newEntries), func(ch, slot int) Packet {
		s, _ := r.SeamOf(ch)
		p, _ := r.PacketAt(ch, s+int64(slot))
		return p
	})

	// After the last seam the swap commits and the new schedule is
	// simply on air.
	if !r.Commit(maxSeam) {
		t.Fatal("commit refused")
	}
	if r.Layout() != newLay || r.Version() != 2 {
		t.Fatalf("committed to %v v%d", r.Layout(), r.Version())
	}
	for ch := 0; ch < newLay.Channels(); ch++ {
		abs := maxSeam + 7
		got, ver := r.PacketAt(ch, abs)
		s := r.phase[ch]
		want := newTx.Packet(ch, int((abs-s)%int64(newLay.ChanLen(ch))))
		if ver != 2 || !samePacket(got, want) {
			t.Fatalf("ch %d: committed stream broken", ch)
		}
	}
}

// TestRebroadcastStageErrors covers the staging validation.
func TestRebroadcastStageErrors(t *testing.T) {
	ds := dataset.Uniform(150, 7, 73)
	x, err := dsi.Build(ds, dsi.Config{ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	lay := buildShardLay(t, x, []int{0, 20, x.NF})
	r, err := NewRebroadcaster(lay)
	if err != nil {
		t.Fatal(err)
	}

	other := dataset.Uniform(150, 7, 74)
	ox, err := dsi.Build(other, dsi.Config{ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Stage(buildShardLay(t, ox, []int{0, 20, ox.NF}), 0); err == nil {
		t.Error("different index staged")
	}
	if _, err := r.Stage(buildShardLay(t, x, []int{0, 10, 20, x.NF}), 0); err == nil {
		t.Error("different channel count staged")
	}
	if _, err := r.Stage(lay, -1); err == nil {
		t.Error("negative stage time accepted")
	}
	if _, err := r.Stage(buildShardLay(t, x, []int{0, 30, x.NF}), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Stage(buildShardLay(t, x, []int{0, 40, x.NF}), 5); err == nil {
		t.Error("double stage accepted")
	}
	// A single-channel layout has no directory to version.
	single, err := dsi.NewLayout(x, dsi.MultiConfig{Channels: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRebroadcaster(single); err == nil {
		t.Error("directoryless layout rebroadcast")
	}
}

// TestRebroadcastConcurrent hammers PacketAt/DirectoryAt from reader
// goroutines while the control goroutine stages and commits — the
// race-detector contract of the transmitter's swap path.
func TestRebroadcastConcurrent(t *testing.T) {
	ds := dataset.Uniform(150, 7, 79)
	x, err := dsi.Build(ds, dsi.Config{ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	lay := buildShardLay(t, x, []int{0, 15, x.NF})
	r, err := NewRebroadcaster(lay)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for abs := int64(g); ; abs += 3 {
				select {
				case <-stop:
					return
				default:
				}
				ch := int(abs) % lay.Channels()
				r.PacketAt(ch, abs)
				if abs%7 == 0 {
					r.DirectoryAt(abs)
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		seam, err := r.Stage(buildShardLay(t, x, []int{0, 10 + i, x.NF}), int64(i*100))
		if err != nil {
			t.Fatal(err)
		}
		deadline := seam
		for ch := 0; ch < lay.Channels(); ch++ {
			if s, ok := r.SeamOf(ch); ok && s > deadline {
				deadline = s
			}
		}
		if !r.Commit(deadline) {
			t.Fatal("commit refused at its own deadline")
		}
	}
	close(stop)
	wg.Wait()
}
