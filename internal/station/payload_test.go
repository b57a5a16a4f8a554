package station

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/wire"
)

// refObjectBytes is the whole-object payload definition the windowed
// synthesizer must reproduce: the wire header, then one big-endian
// filler word per whole 8 bytes past it, zero-padded to size.
func refObjectBytes(h wire.ObjectHeader, id, size int) []byte {
	buf := make([]byte, size)
	copy(buf, wire.EncodeHeader(h))
	for at := wire.HeaderSize; at+8 <= size; at += 8 {
		binary.BigEndian.PutUint64(buf[at:], uint64(id)*0x9e3779b97f4a7c15+uint64(at))
	}
	return buf
}

// refWindow is bytes [from, to) of the reference payload, clipped to
// it; nil when the window starts at or past the end.
func refWindow(h wire.ObjectHeader, id, size, from, to int) []byte {
	full := refObjectBytes(h, id, size)
	if from >= size {
		return nil
	}
	return full[from:min(to, size)]
}

var testHeader = wire.ObjectHeader{X: 0xdead, Y: 0xbeef, HC: 0x0123456789abcdef}

func TestAppendObjectBytesWindows(t *testing.T) {
	cases := []struct {
		name           string
		id, size       int
		from, to       int
		wantNilPayload bool
	}{
		{name: "whole object", id: 7, size: 1024, from: 0, to: 1024},
		{name: "first packet", id: 7, size: 1024, from: 0, to: 64},
		{name: "middle packet", id: 7, size: 1024, from: 640, to: 704},
		{name: "last packet", id: 7, size: 1024, from: 960, to: 1024},
		{name: "window inside the header", id: 3, size: 256, from: 5, to: 20},
		{name: "window straddles the header end", id: 3, size: 256, from: 20, to: 50},
		{name: "unaligned window", id: 3, size: 256, from: 37, to: 93},
		{name: "window inside one word", id: 3, size: 256, from: 41, to: 44},
		{name: "size not a multiple of 8", id: 11, size: 100, from: 64, to: 128},
		{name: "size not a multiple of 8, tail only", id: 11, size: 101, from: 96, to: 101},
		{name: "size not a multiple of the capacity", id: 11, size: 200, from: 192, to: 256},
		{name: "capacity larger than the object", id: 2, size: 48, from: 0, to: 512},
		{name: "object shorter than the header", id: 2, size: 20, from: 0, to: 64},
		{name: "window past the object", id: 2, size: 256, from: 256, to: 320, wantNilPayload: true},
		{name: "window far past the object", id: 2, size: 100, from: 128, to: 192, wantNilPayload: true},
		{name: "empty window", id: 2, size: 256, from: 64, to: 64, wantNilPayload: true},
		{name: "large id", id: 1 << 40, size: 1000, from: 500, to: 999},
	}
	for _, c := range cases {
		got := AppendObjectBytes(nil, testHeader, c.id, c.size, c.from, c.to)
		if c.wantNilPayload && got != nil {
			t.Errorf("%s: got %d bytes, want a nil payload", c.name, len(got))
			continue
		}
		if want := refWindow(testHeader, c.id, c.size, c.from, c.to); !bytes.Equal(got, want) {
			t.Errorf("%s: window [%d,%d) of a %dB object:\n got %x\nwant %x", c.name, c.from, c.to, c.size, got, want)
		}
	}
}

// TestAppendObjectBytesAppends: the window lands after dst's bytes,
// which it leaves untouched, and a stale spare capacity is overwritten.
func TestAppendObjectBytesAppends(t *testing.T) {
	dst := make([]byte, 3, 128)
	copy(dst, "abc")
	spare := dst[:cap(dst)]
	for i := len(dst); i < len(spare); i++ {
		spare[i] = 0xff
	}
	got := AppendObjectBytes(dst, testHeader, 9, 101, 60, 101)
	want := append([]byte("abc"), refWindow(testHeader, 9, 101, 60, 101)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("got %x\nwant %x", got, want)
	}
}

// FuzzObjectBytesWindow: every window of every object size matches the
// whole-object reference.
func FuzzObjectBytesWindow(f *testing.F) {
	f.Add(uint32(7), uint16(1024), uint16(0), uint16(64))
	f.Add(uint32(7), uint16(1024), uint16(960), uint16(64))
	f.Add(uint32(3), uint16(256), uint16(20), uint16(30))
	f.Add(uint32(11), uint16(101), uint16(96), uint16(64))
	f.Add(uint32(2), uint16(48), uint16(0), uint16(512))
	f.Add(uint32(2), uint16(20), uint16(0), uint16(64))
	f.Add(uint32(2), uint16(256), uint16(256), uint16(64))
	f.Add(uint32(5), uint16(999), uint16(33), uint16(7))
	f.Fuzz(func(t *testing.T, id uint32, size, from, n uint16) {
		sz, lo := int(size)%4096, int(from)%4096
		hi := lo + int(n)%1024
		got := AppendObjectBytes(nil, testHeader, int(id), sz, lo, hi)
		if want := refWindow(testHeader, int(id), sz, lo, hi); !bytes.Equal(got, want) {
			t.Fatalf("window [%d,%d) of a %dB object (id %d):\n got %x\nwant %x", lo, hi, sz, id, got, want)
		}
	})
}

// refPacket is the reference payload of the data packet carrying part
// part of object i.
func refPacket(x *dsi.Index, i, part int) []byte {
	obj := x.DS.Objects[i]
	from := part * x.Cfg.Capacity
	return refWindow(wire.ObjectHeader{X: obj.P.X, Y: obj.P.Y, HC: obj.HC},
		obj.ID, x.Cfg.ObjectBytes, from, from+x.Cfg.Capacity)
}

// TestTransmitterPayloadsMatchReference: every data packet of a cycle,
// on the single-channel and multi-channel transmitters and on capacities
// that do and do not divide the object size, carries exactly the
// reference bytes of its object window.
func TestTransmitterPayloadsMatchReference(t *testing.T) {
	for _, cfg := range []dsi.Config{
		{},
		{Capacity: 100, ObjectBytes: 250},
		{Capacity: 512, ObjectBytes: 300},
	} {
		x := buildIdx(t, cfg)
		tx, err := NewTransmitter(x)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for slot := 0; slot < tx.CycleSlots(); slot++ {
			pos, within := slot/x.FramePackets, slot%x.FramePackets
			if within < x.TablePackets {
				continue
			}
			o, part := (within-x.TablePackets)/x.ObjPackets, (within-x.TablePackets)%x.ObjPackets
			first, num := x.FrameObjects(x.PosToFrame(pos))
			if o >= num {
				continue
			}
			if got, want := tx.Packet(slot).Payload, refPacket(x, first+o, part); !bytes.Equal(got, want) {
				t.Fatalf("cfg %+v slot %d: payload %x, want %x", cfg, slot, got, want)
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("cfg %+v: no data packets checked", cfg)
		}
	}

	lay := buildLayout(t, dsi.Config{Capacity: 100, ObjectBytes: 250, ReserveMCPtr: true},
		dsi.MultiConfig{Channels: 3, Scheduler: dsi.SchedSplit, SwitchSlots: 2})
	mt, err := NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	x := lay.X
	for ch := 0; ch < lay.Channels(); ch++ {
		for slot, ref := range mt.plan[ch] {
			if !ref.data || ref.obj < 0 {
				continue
			}
			first, _ := x.FrameObjects(x.PosToFrame(ref.pos))
			if got, want := mt.Packet(ch, slot).Payload, refPacket(x, first+ref.obj, ref.part); !bytes.Equal(got, want) {
				t.Fatalf("channel %d slot %d: payload %x, want %x", ch, slot, got, want)
			}
		}
	}
}

// TestDataPacketAllocs: a warm data-packet PacketAt allocates one buffer
// of at most Capacity bytes (the packet it returns), not the object.
func TestDataPacketAllocs(t *testing.T) {
	for _, capacity := range []int{64, 128} {
		x := buildIdx(t, dsi.Config{Capacity: capacity, ObjectBytes: 1024})
		tx, err := NewTransmitter(x)
		if err != nil {
			t.Fatal(err)
		}
		lay := buildLayout(t, dsi.Config{Capacity: capacity, ObjectBytes: 1024, ReserveMCPtr: true},
			dsi.MultiConfig{Channels: 4, Scheduler: dsi.SchedSplit, SwitchSlots: 2})
		mt, err := NewMultiTransmitter(lay)
		if err != nil {
			t.Fatal(err)
		}
		// A middle packet of the first object: a full Capacity window.
		slot := int64(x.TablePackets + 1)
		dc, dsl := lay.DataPlace(0)
		mslot := int64(dsl + 1)
		for _, c := range []struct {
			name string
			f    func() Packet
		}{
			{"Transmitter", func() Packet { p, _ := tx.PacketAt(0, slot); return p }},
			{"MultiTransmitter", func() Packet { p, _ := mt.PacketAt(dc, mslot); return p }},
		} {
			// The one allocation is the payload itself, so its
			// capacity is the allocated size.
			if p := c.f(); p.Flags&flagIndex != 0 || len(p.Payload) != capacity || cap(p.Payload) != capacity {
				t.Fatalf("%s capacity %d: probe slot is not a full data packet in its own buffer (flags %#x, len %d, cap %d)",
					c.name, capacity, p.Flags, len(p.Payload), cap(p.Payload))
			}
			if n := testing.AllocsPerRun(100, func() { c.f() }); n != 1 {
				t.Errorf("%s capacity %d: %v allocations per data packet, want 1", c.name, capacity, n)
			}
		}
	}
}

// packetSink keeps the benchmarked packets alive.
var packetSink Packet

// benchSweep reports a PacketAt sweep over b.N per-channel slots, every
// channel at each absolute slot, as slots/s (packets per second).
func benchSweep(b *testing.B, chans int, at func(ch int, abs int64) Packet) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packetSink = at(i%chans, int64(i/chans))
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "slots/s")
}

// benchIndex builds the air cmd/dsistation serves by default: 10^4
// uniform objects at order 8, 64 B packets, 1 KB objects (with
// multi-channel pointers for a multi-channel layout).
func benchIndex(b *testing.B, multi bool) *dsi.Index {
	b.Helper()
	x, err := dsi.Build(dataset.Uniform(10000, 8, 1), dsi.Config{Capacity: 64, ReserveMCPtr: multi})
	if err != nil {
		b.Fatal(err)
	}
	return x
}

// BenchmarkTransmitterPacketAt sweeps the single-channel cycle slot by
// slot, as a station's pacer does.
func BenchmarkTransmitterPacketAt(b *testing.B) {
	tx, err := NewTransmitter(benchIndex(b, false))
	if err != nil {
		b.Fatal(err)
	}
	benchSweep(b, 1, func(ch int, abs int64) Packet { p, _ := tx.PacketAt(ch, abs); return p })
}

// BenchmarkMultiTransmitterPacketAt sweeps the 4-channel split cycle,
// plain and Reed-Solomon coded, every channel at each absolute slot.
func BenchmarkMultiTransmitterPacketAt(b *testing.B) {
	x := benchIndex(b, true)
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{Channels: 4, Scheduler: dsi.SchedSplit, SwitchSlots: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, fec := range []wire.FECConfig{{}, {
		Table:  wire.FECCode{Groups: 1, Parity: 2},
		Object: wire.FECCode{Groups: 1, Parity: 2},
	}} {
		name := "plain"
		if fec.Enabled() {
			name = fmt.Sprintf("fec-rs%d", fec.Object.Parity)
		}
		b.Run(name, func(b *testing.B) {
			mt, err := NewMultiTransmitterFEC(lay, fec)
			if err != nil {
				b.Fatal(err)
			}
			benchSweep(b, lay.Channels(), func(ch int, abs int64) Packet { p, _ := mt.PacketAt(ch, abs); return p })
		})
	}
}
