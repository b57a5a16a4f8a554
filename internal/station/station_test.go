package station

import (
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/wire"
)

func buildIdx(t *testing.T, cfg dsi.Config) *dsi.Index {
	t.Helper()
	ds := dataset.Uniform(150, 6, 41)
	x, err := dsi.Build(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// checkSelfDescribing reads one cycle of every channel of lay through
// at (channel, per-channel cycle slot) and decodes each packet with
// package wire, as a receiver knowing only the catalog geometry would:
// index tables with wire.DecodeTable on a one-channel layout and
// wire.DecodeTableMC (pointers validated against framesOn) otherwise,
// object-start packets with wire.DecodeHeader. It fails unless the
// decoded stream is exactly the catalog: every frame's minimum HC
// value, every table pointer, and every object header, with no object
// invented in a padding slot.
func checkSelfDescribing(t *testing.T, lay *dsi.Layout, framesOn []int, at func(ch, slot int) Packet) {
	t.Helper()
	x := lay.X
	capacity := x.Cfg.Capacity
	parts := make([][]byte, x.NF*x.TablePackets)
	seen := make([]bool, x.NF*x.TablePackets)
	headers := 0
	for ch := 0; ch < lay.Channels(); ch++ {
		for slot := 0; slot < lay.ChanLen(ch); slot++ {
			p := at(ch, slot)
			if int(p.Ch) != ch || int(p.Slot) != slot {
				t.Fatalf("channel %d slot %d framed as channel %d slot %d", ch, slot, p.Ch, p.Slot)
			}
			if len(p.Payload) > capacity {
				t.Fatalf("channel %d slot %d: payload %dB exceeds capacity %d", ch, slot, len(p.Payload), capacity)
			}
			pos, part, isTable := lay.SlotTable(ch, slot)
			if (p.Flags&flagIndex != 0) != isTable {
				t.Fatalf("channel %d slot %d: index flag %v, layout says table %v", ch, slot, p.Flags&flagIndex != 0, isTable)
			}
			if isTable {
				i := pos*x.TablePackets + part
				if seen[i] {
					t.Fatalf("position %d table part %d broadcast twice", pos, part)
				}
				seen[i], parts[i] = true, p.Payload
				continue
			}
			pos, off, isData := lay.SlotData(ch, slot)
			if !isData {
				t.Fatalf("channel %d slot %d is neither table nor data", ch, slot)
			}
			first, num := x.FrameObjects(x.PosToFrame(pos))
			o := off / x.ObjPackets
			if o >= num {
				if p.Flags != 0 || len(p.Payload) != 0 {
					t.Fatalf("channel %d slot %d: padding slot carries flags %#x and %dB", ch, slot, p.Flags, len(p.Payload))
				}
				continue
			}
			if (p.Flags&flagObjectStart != 0) != (off%x.ObjPackets == 0) {
				t.Fatalf("channel %d slot %d: object-start flag wrong at offset %d", ch, slot, off)
			}
			if p.Flags&flagObjectStart == 0 {
				continue
			}
			h, err := wire.DecodeHeader(p.Payload)
			if err != nil {
				t.Fatalf("channel %d slot %d: %v", ch, slot, err)
			}
			obj := x.DS.Objects[first+o]
			if h.HC != obj.HC || h.X != obj.P.X || h.Y != obj.P.Y {
				t.Fatalf("position %d object %d: header %+v, want %+v", pos, o, h, obj)
			}
			headers++
		}
	}

	for pos := 0; pos < x.NF; pos++ {
		var buf []byte
		for part := 0; part < x.TablePackets; part++ {
			if !seen[pos*x.TablePackets+part] {
				t.Fatalf("position %d table part %d never broadcast", pos, part)
			}
			buf = append(buf, parts[pos*x.TablePackets+part]...)
		}
		want := x.TableAt(pos)
		if lay.Channels() == 1 {
			got, err := wire.DecodeTable(buf, pos, x.NF)
			if err != nil {
				t.Fatalf("position %d: %v", pos, err)
			}
			if got.OwnHC != want.OwnHC || len(got.Entries) != len(want.Entries) {
				t.Fatalf("position %d: table (%d, %d entries), want (%d, %d)",
					pos, got.OwnHC, len(got.Entries), want.OwnHC, len(want.Entries))
			}
			for i, e := range got.Entries {
				if e != want.Entries[i] {
					t.Fatalf("position %d entry %d: %+v, want %+v", pos, i, e, want.Entries[i])
				}
			}
			continue
		}
		own, entries, err := wire.DecodeTableMC(buf, framesOn)
		if err != nil {
			t.Fatalf("position %d: %v", pos, err)
		}
		if own != want.OwnHC || len(entries) != len(want.Entries) {
			t.Fatalf("position %d: table (%d, %d entries), want (%d, %d)",
				pos, own, len(entries), want.OwnHC, len(want.Entries))
		}
		for i, e := range entries {
			target := want.Entries[i]
			wantCh, wantIdx := lay.DataFrameIndex(target.TargetPos)
			if int(e.Ch) != wantCh || int(e.Frame) != wantIdx || e.MinHC != target.MinHC {
				t.Fatalf("position %d entry %d: %+v, want (%d,%d,%d)", pos, i, e, wantCh, wantIdx, target.MinHC)
			}
		}
	}
	if headers != x.DS.N() {
		t.Fatalf("stream carried %d object headers, want %d", headers, x.DS.N())
	}
}

// layoutFramesOn is the per-channel frame count a receiver validates
// multi-channel pointers against, from the layout it knows a priori.
func layoutFramesOn(lay *dsi.Layout) []int {
	framesOn := make([]int, lay.Channels())
	for ch := range framesOn {
		framesOn[ch] = lay.FramesOn(ch)
	}
	return framesOn
}

// checkTransmitter sweeps one cycle of tx through PacketAt.
func checkTransmitter(t *testing.T, tx *Transmitter) {
	t.Helper()
	checkSelfDescribing(t, tx.Lay, layoutFramesOn(tx.Lay), func(ch, slot int) Packet {
		p, _ := tx.PacketAt(ch, int64(slot))
		return p
	})
}

func TestStreamIsSelfDescribing(t *testing.T) {
	for _, cfg := range []dsi.Config{
		{},
		{Segments: 2},
		{Capacity: 512},
		{Sizing: dsi.SizingUnitFactor},
		{Sizing: dsi.SizingPaperTable, Capacity: 64},
	} {
		x := buildIdx(t, cfg)
		tx, err := NewTransmitter(x)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		checkTransmitter(t, tx)
	}
}

func TestPacketFraming(t *testing.T) {
	x := buildIdx(t, dsi.Config{})
	tx, err := NewTransmitter(x)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 3*x.FramePackets; slot++ {
		p := tx.Packet(0, slot)
		if int(p.Slot) != slot {
			t.Fatalf("slot %d framed as %d", slot, p.Slot)
		}
		if len(p.Payload) > x.Cfg.Capacity {
			t.Fatalf("slot %d payload %dB over capacity", slot, len(p.Payload))
		}
		within := slot % x.FramePackets
		wantIndex := within < x.TablePackets
		if (p.Flags&flagIndex != 0) != wantIndex {
			t.Fatalf("slot %d index flag wrong", slot)
		}
		if wantIndex != (x.Prog.At(slot).Kind == broadcast.KindIndex) {
			t.Fatalf("slot %d kind disagrees with the simulator program", slot)
		}
	}
	// Packet is cyclic.
	if got := tx.Packet(0, x.Prog.Len()); got.Slot != 0 {
		t.Error("Packet must wrap around the cycle")
	}
}

func TestObjectPayloadDeterministic(t *testing.T) {
	x := buildIdx(t, dsi.Config{})
	tx, _ := NewTransmitter(x)
	slot := x.TablePackets // first data packet of position 0
	a := tx.Packet(0, slot)
	b := tx.Packet(0, slot)
	if string(a.Payload) != string(b.Payload) {
		t.Error("object payload not deterministic")
	}
}

func TestPaddingSlotsOfPartialLastFrame(t *testing.T) {
	// 103 objects with paper-table sizing leave padding slots in the
	// last frame; the transmitter must emit empty packets there and a
	// receiver must not find objects in them.
	ds := dataset.Uniform(103, 6, 43)
	x, err := dsi.Build(ds, dsi.Config{Sizing: dsi.SizingPaperTable, Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	if x.NF*x.NO == x.DS.N() {
		t.Fatal("no partial last frame: pick another object count")
	}
	tx, err := NewTransmitter(x)
	if err != nil {
		t.Fatal(err)
	}
	checkTransmitter(t, tx)
}
