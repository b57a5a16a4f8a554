// Multi-channel transmission: the station side of the channel
// abstraction layer. A MultiTransmitter materializes one byte stream
// per channel of a dsi.Layout — index tables in the multi-channel wire
// format (whose pointers carry channel ids), object payloads on their
// data channels — and ScanMulti proves the streams are self-describing
// by rebuilding the complete broadcast metadata from one cycle of every
// channel.

package station

import (
	"fmt"
	"sync"

	"dsi/internal/dsi"
	"dsi/internal/obs"
	"dsi/internal/wire"
)

// slotRef describes what one per-channel slot carries.
type slotRef struct {
	pos  int  // cycle position of the owning frame
	obj  int  // object index within the frame (data slots)
	part int  // packet index within the table or object
	data bool // data packet (as opposed to index table packet)
}

// MultiTransmitter materializes the per-channel byte streams of a
// multi-channel DSI broadcast.
type MultiTransmitter struct {
	Lay    *dsi.Layout
	tables [][]byte    // per cycle position, multi-channel wire format
	plan   [][]slotRef // per channel, per slot

	// Cached DirectoryAt encoding (version 1, anchored at slot 0).
	dirOnce sync.Once
	dir     []byte

	// Erasure code (NewMultiTransmitterFEC); nil when uncoded.
	fec     *fecGeom
	parity  [][][]byte // per channel, per physical slot; nil for content
	fecDesc []byte

	// met, when set, counts per-channel packets served via PacketAt.
	met *obs.StationMetrics
}

// SetObs installs the station metric bundle (nil counts nothing).
func (t *MultiTransmitter) SetObs(m *obs.StationMetrics) { t.met = m }

// NewMultiTransmitter prepares the table encodings and the per-channel
// slot plans for the layout.
func NewMultiTransmitter(lay *dsi.Layout) (*MultiTransmitter, error) {
	tables, err := wire.EncodeLayoutTables(lay)
	if err != nil {
		return nil, err
	}
	x := lay.X
	plan := make([][]slotRef, lay.Channels())
	for ch := range plan {
		plan[ch] = make([]slotRef, lay.ChanLen(ch))
	}
	for pos := 0; pos < x.NF; pos++ {
		tc, ts := lay.TablePlace(pos)
		for p := 0; p < x.TablePackets; p++ {
			// Phase-staggered stripe channels may wrap a frame across
			// the cycle seam, so slot indices are reduced modulo the
			// channel length.
			plan[tc][(ts+p)%len(plan[tc])] = slotRef{pos: pos, part: p}
		}
		dc, dsl := lay.DataPlace(pos)
		_, num := x.FrameObjects(x.PosToFrame(pos))
		for o := 0; o < x.NO; o++ {
			for p := 0; p < x.ObjPackets; p++ {
				ref := slotRef{pos: pos, obj: o, part: p, data: true}
				if o >= num {
					ref.obj = -1 // padding slot of a partial last frame
				}
				plan[dc][(dsl+o*x.ObjPackets+p)%len(plan[dc])] = ref
			}
		}
	}
	return &MultiTransmitter{Lay: lay, tables: tables, plan: plan}, nil
}

// Directory returns the encoded on-air channel directory of the
// transmitter's layout (split and sharded layouts): the shard/cycle
// catalog a station broadcasts alongside the streams so receivers can
// interpret multi-channel pointers into unequal cycles. ScanMultiDir
// consumes it on the receiver side.
func (t *MultiTransmitter) Directory() ([]byte, error) { return wire.EncodeShardDir(t.Lay) }

// Packet returns the packet broadcast at the given per-channel cycle
// slot of channel ch. On a coded transmitter the slot is physical and
// parity slots carry their encoded parity frames.
func (t *MultiTransmitter) Packet(ch, slot int) Packet {
	if t.fec == nil {
		return t.logicalPacket(ch, slot)
	}
	c := &t.fec.chs[ch]
	slot %= c.physLen
	if par := t.parity[ch][slot]; par != nil {
		return Packet{Ch: uint8(ch), Slot: uint32(slot), Flags: flagParity, Payload: par}
	}
	p := t.logicalPacket(ch, int(c.logOf[slot]))
	p.Slot = uint32(slot)
	return p
}

// ChanSlots returns channel ch's cycle length in packet slots —
// physical slots on a coded transmitter.
func (t *MultiTransmitter) ChanSlots(ch int) int {
	if t.fec != nil {
		return t.fec.chs[ch].physLen
	}
	return len(t.plan[ch])
}

func (t *MultiTransmitter) logicalPacket(ch, slot int) Packet {
	x := t.Lay.X
	slot %= len(t.plan[ch])
	ref := t.plan[ch][slot]
	p := Packet{Ch: uint8(ch), Slot: uint32(slot)}

	if !ref.data {
		p.Flags = flagIndex
		tab := t.tables[ref.pos]
		from := ref.part * x.Cfg.Capacity
		if from < len(tab) {
			to := min(from+x.Cfg.Capacity, len(tab))
			p.Payload = tab[from:to]
		}
		return p
	}
	if ref.obj < 0 {
		return p // padding slot of a partial last frame
	}
	first, _ := x.FrameObjects(x.PosToFrame(ref.pos))
	if ref.part == 0 {
		p.Flags = flagObjectStart
	}
	p.Payload = objectPacket(x, first+ref.obj, ref.part*x.Cfg.Capacity)
	return p
}

// CycleChannel streams one full cycle of channel ch and closes out.
func (t *MultiTransmitter) CycleChannel(ch int, out chan<- Packet) {
	for slot := 0; slot < t.ChanSlots(ch); slot++ {
		out <- t.Packet(ch, slot)
	}
	close(out)
}

// MultiFrameInfo is what ScanMulti reconstructs per cycle position.
type MultiFrameInfo struct {
	Pos     int
	MinHC   uint64
	Entries []wire.MCEntry      // decoded table pointers
	Headers []wire.ObjectHeader // object headers from the data channel
}

// ScanMulti consumes one cycle of every channel (streams[ch] carries
// channel ch, which must match the layout's channel count) and
// reconstructs the broadcast metadata: every multi-channel index table
// (validated against the catalog geometry, channel ids included) and
// every object header. It fails on any inconsistency between the
// streams and the layout a receiver would know a priori.
func ScanMulti(lay *dsi.Layout, streams []<-chan Packet) ([]MultiFrameInfo, error) {
	framesOn := make([]int, lay.Channels())
	for ch := range framesOn {
		framesOn[ch] = lay.FramesOn(ch)
	}
	return scanMulti(lay, framesOn, streams)
}

// ScanMultiDir is ScanMulti for a receiver that takes the per-channel
// geometry from the broadcast's own channel directory rather than from
// a-priori layout knowledge: the directory is decoded, cross-checked
// against the layout geometry the slot inversions use, and its frame
// counts validate every table pointer. A directory that contradicts
// the streams' actual geometry is rejected.
func ScanMultiDir(lay *dsi.Layout, dir []byte, streams []<-chan Packet) ([]MultiFrameInfo, error) {
	entries, err := wire.DecodeShardDir(dir)
	if err != nil {
		return nil, err
	}
	if len(entries) != lay.Channels() {
		return nil, fmt.Errorf("station: directory describes %d channels, air has %d",
			len(entries), lay.Channels())
	}
	for ch, e := range entries {
		if int(e.CycleSlots) != lay.ChanLen(ch) || int(e.Frames) != lay.FramesOn(ch) {
			return nil, fmt.Errorf("station: directory channel %d geometry (%d frames, %d slots) contradicts the air (%d, %d)",
				ch, e.Frames, e.CycleSlots, lay.FramesOn(ch), lay.ChanLen(ch))
		}
	}
	return scanMulti(lay, wire.FramesOnDir(entries), streams)
}

func scanMulti(lay *dsi.Layout, framesOn []int, streams []<-chan Packet) ([]MultiFrameInfo, error) {
	if len(streams) != lay.Channels() {
		return nil, fmt.Errorf("station: %d streams for %d channels", len(streams), lay.Channels())
	}
	x := lay.X
	frames := make([]MultiFrameInfo, x.NF)
	for pos := range frames {
		frames[pos].Pos = pos
	}

	// Order-independent table assembly: table parts are placed by slot
	// inversion rather than read sequentially, because phase-staggered
	// stripe channels can wrap a frame — table included — across the
	// cycle seam, and shard channels of unequal cycles interleave
	// arbitrarily with the index channel.
	tabSize := wire.MCTableSize(x.E)
	tabBuf := make([]byte, x.NF*tabSize)
	tabParts := make([]int, x.NF)

	for ch, in := range streams {
		expect := 0
		for p := range in {
			if int(p.Ch) != ch {
				return nil, fmt.Errorf("station: packet for channel %d on channel %d's stream", p.Ch, ch)
			}
			if int(p.Slot) != expect {
				return nil, fmt.Errorf("station: channel %d: slot %d arrived, want %d", ch, p.Slot, expect)
			}
			expect++
			if len(p.Payload) > x.Cfg.Capacity {
				return nil, fmt.Errorf("station: channel %d slot %d: payload %dB exceeds capacity",
					ch, p.Slot, len(p.Payload))
			}

			switch {
			case p.Flags&flagIndex != 0:
				pos, part, ok := lay.SlotTable(ch, int(p.Slot))
				if !ok {
					return nil, fmt.Errorf("station: channel %d slot %d: unexpected table packet", ch, p.Slot)
				}
				exp := tabSize - part*x.Cfg.Capacity
				if exp < 0 {
					exp = 0
				}
				if exp > x.Cfg.Capacity {
					exp = x.Cfg.Capacity
				}
				if len(p.Payload) != exp {
					return nil, fmt.Errorf("station: position %d: table part %d truncated to %dB, want %dB",
						pos, part, len(p.Payload), exp)
				}
				copy(tabBuf[pos*tabSize+part*x.Cfg.Capacity:], p.Payload)
				tabParts[pos]++
				if tabParts[pos] == x.TablePackets {
					own, entries, err := wire.DecodeTableMC(tabBuf[pos*tabSize:(pos+1)*tabSize], framesOn)
					if err != nil {
						return nil, fmt.Errorf("station: position %d: %w", pos, err)
					}
					frames[pos].MinHC = own
					frames[pos].Entries = entries
				}
			case p.Flags&flagObjectStart != 0:
				pos, _, ok := lay.SlotData(ch, int(p.Slot))
				if !ok {
					return nil, fmt.Errorf("station: channel %d slot %d: object start outside data slots", ch, p.Slot)
				}
				h, err := wire.DecodeHeader(p.Payload)
				if err != nil {
					return nil, fmt.Errorf("station: channel %d slot %d: %w", ch, p.Slot, err)
				}
				frames[pos].Headers = append(frames[pos].Headers, h)
			}
		}
		if expect != lay.ChanLen(ch) {
			return nil, fmt.Errorf("station: channel %d: scanned %d slots, want %d", ch, expect, lay.ChanLen(ch))
		}
	}
	return frames, nil
}
