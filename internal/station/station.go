// Package station prototypes the transmitter side of a location-based
// wireless broadcast system — the paper's stated future work
// (section 6). Where the simulator accounts packet costs symbolically,
// the station materializes the actual byte stream: every packet of the
// DSI broadcast cycle with its index-table or object payload encoded by
// internal/wire, framed with the position header clients use to
// synchronize. One Transmitter serves every channel layout: a
// single-channel broadcast is the one-channel case of the same frame
// sequence.
//
// The package also provides the receiving side: WireReceiver and
// FECReceiver decode the raw packets with package wire. That the
// stream is self-describing — every frame boundary, minimum HC value,
// pointer and object header recoverable from one cycle of raw packets
// alone, the property all of DSI's client algorithms rest on — is
// proven by the WireReceiver bit-identity suites, which run the
// simulator's queries over the bytes and get the simulator's answers
// and costs.
package station

import (
	"encoding/binary"
	"sync"

	"dsi/internal/dsi"
	"dsi/internal/obs"
	"dsi/internal/wire"
)

// Every packet on air is framed with its cycle slot and flags: how a
// client that tunes in mid-cycle knows where it is. The simulator's
// capacity figures address payload only (the paper likewise treats
// capacity as usable payload), so the framing is carried in addition to
// Capacity bytes.
const (
	flagIndex byte = 1 << iota
	flagObjectStart
	flagParity
)

// The flag values, exported for byte-exact packet producers outside
// the package — the diskstore image pipeline synthesizes the same
// framing a Transmitter emits.
const (
	FlagIndex       = flagIndex
	FlagObjectStart = flagObjectStart
	FlagParity      = flagParity
)

// Packet is one on-air packet: framing plus payload. Ch identifies the
// broadcast channel on multi-channel airs; a single-channel broadcast
// always emits channel 0.
type Packet struct {
	Ch      uint8  // broadcast channel
	Slot    uint32 // per-channel cycle slot
	Flags   byte
	Payload []byte // at most Capacity bytes
}

// Transmitter materializes the per-channel byte streams of a DSI
// broadcast over any dsi.Layout, the classic single channel included:
// index tables in the format the layout's receivers decode
// (wire.EncodeLayoutTables), object payloads on their data channels.
// Each slot's role is derived from the layout's slot inversions
// (SlotTable, SlotData), so no per-slot state is kept. A transmitter
// built with an erasure code additionally interleaves parity packets
// and runs in the physical slot domain (see fec.go).
type Transmitter struct {
	Lay    *dsi.Layout
	tables [][]byte // per cycle position

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

// MultiTransmitter is the former name of Transmitter, kept for callers
// that still spell it.
type MultiTransmitter = Transmitter

// NewTransmitter returns the transmitter of the index's classic
// single-channel broadcast.
func NewTransmitter(x *dsi.Index) (*Transmitter, error) {
	return NewMultiTransmitterFEC(x.SingleLayout(), wire.FECConfig{})
}

// NewTransmitterFEC is NewTransmitter with an erasure code.
func NewTransmitterFEC(x *dsi.Index, cfg wire.FECConfig) (*Transmitter, error) {
	return NewMultiTransmitterFEC(x.SingleLayout(), cfg)
}

// NewMultiTransmitter returns the uncoded transmitter of a layout.
func NewMultiTransmitter(lay *dsi.Layout) (*Transmitter, error) {
	return NewMultiTransmitterFEC(lay, wire.FECConfig{})
}

// SetObs installs the station metric bundle (nil counts nothing).
func (t *Transmitter) SetObs(m *obs.StationMetrics) { t.met = m }

// Packet returns the packet broadcast at the given per-channel cycle
// slot of channel ch. Object payloads are the wire header followed by
// deterministic filler (a real deployment would carry the application
// payload). On a coded transmitter the slot is physical and parity
// slots carry their encoded parity frames.
func (t *Transmitter) Packet(ch, slot int) Packet { return t.packet(ch, slot%t.ChanSlots(ch)) }

// packet is Packet for a slot already reduced to the channel's cycle.
func (t *Transmitter) packet(ch, slot int) Packet {
	if t.fec == nil {
		return t.logicalPacket(ch, slot)
	}
	c := &t.fec.chs[ch]
	if par := t.parity[ch][slot]; par != nil {
		return Packet{Ch: uint8(ch), Slot: uint32(slot), Flags: flagParity, Payload: par}
	}
	p := t.logicalPacket(ch, int(c.logOf[slot]))
	p.Slot = uint32(slot)
	return p
}

// ChanSlots returns channel ch's cycle length in packet slots —
// physical slots on a coded transmitter.
func (t *Transmitter) ChanSlots(ch int) int {
	if t.fec != nil {
		return t.fec.chs[ch].physLen
	}
	return t.Lay.ChanLen(ch)
}

// CycleSlots returns channel 0's cycle length in packet slots: the
// whole cycle of a single-channel broadcast.
func (t *Transmitter) CycleSlots() int { return t.ChanSlots(0) }

// logicalPacket returns the content packet at a logical slot of
// channel ch, 0 <= slot < the channel's logical cycle length.
func (t *Transmitter) logicalPacket(ch, slot int) Packet {
	lay := t.Lay
	x := lay.X
	p := Packet{Ch: uint8(ch), Slot: uint32(slot)}

	if pos, part, ok := lay.SlotTable(ch, slot); ok {
		p.Flags = flagIndex
		tab := t.tables[pos]
		from := part * x.Cfg.Capacity
		if from < len(tab) {
			p.Payload = tab[from:min(from+x.Cfg.Capacity, len(tab))]
		}
		return p
	}
	pos, off, _ := lay.SlotData(ch, slot) // every non-table slot carries data
	o, part := off/x.ObjPackets, off%x.ObjPackets
	first, num := x.FrameObjects(x.PosToFrame(pos))
	if o >= num {
		return p // padding slot of a partial last frame
	}
	if part == 0 {
		p.Flags = flagObjectStart
	}
	p.Payload = objectPacket(x, first+o, part*x.Cfg.Capacity)
	return p
}

// PacketAt implements PacketSource: a static transmitter serves one
// schedule forever, anchored at slot 0 as directory version 1.
func (t *Transmitter) PacketAt(ch int, abs int64) (Packet, uint32) {
	t.met.PacketEmitted(ch)
	return t.packet(ch, int(abs%int64(t.ChanSlots(ch)))), 1
}

// FECDescAt implements FECSource: the transmitter's code encoded as
// version 1, nil for an uncoded broadcast.
func (t *Transmitter) FECDescAt(int64) ([]byte, uint32) { return t.fecDesc, 1 }

// DirectoryAt implements PacketSource: the layout's directory encoded
// as version 1 anchored at slot 0, nil for layouts without one (single
// channel, stripe); the encoding is cached after the first call.
func (t *Transmitter) DirectoryAt(int64) ([]byte, uint32) {
	t.dirOnce.Do(func() {
		if dir, err := wire.EncodeDirV(t.Lay, 1, 0); err == nil {
			t.dir = dir
		}
	})
	return t.dir, 1
}

// objectPacket synthesizes the payload of the data packet that starts
// at byte from of object i: at most one packet's bytes, freshly
// allocated so the caller owns them (nil past the object's end).
func objectPacket(x *dsi.Index, i, from int) []byte {
	obj := &x.DS.Objects[i]
	return AppendObjectBytes(nil, wire.ObjectHeader{X: obj.P.X, Y: obj.P.Y, HC: obj.HC},
		obj.ID, x.Cfg.ObjectBytes, from, from+x.Cfg.Capacity)
}

// AppendObjectBytes appends bytes [from, to) (0 <= from) of one data
// object's on-air payload to dst and returns the extended slice. The payload is
// size bytes: the wire header, then deterministic filler derived from
// the object ID, one big-endian word per 8 bytes past the header (a
// tail shorter than a word stays zero). The window is clipped to the
// payload, so a window at or past size appends nothing. Only the bytes
// of the window are computed: header bytes when from < HeaderSize,
// otherwise just the filler words overlapping it.
//
// This is the one definition of object payload bytes: the transmitters
// call it with a packet's window, the diskstore image pipeline with the
// whole object.
func AppendObjectBytes(dst []byte, h wire.ObjectHeader, id, size, from, to int) []byte {
	to = min(to, size)
	if from >= to {
		return dst
	}
	n, m := len(dst), to-from
	if cap(dst)-n < m {
		grown := make([]byte, n, max(n+m, 2*cap(dst)))
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:n+m]
	out := dst[n:]
	clear(out) // spare capacity may be stale; a short tail stays zero
	if from < wire.HeaderSize {
		var hdr [wire.HeaderSize]byte
		wire.PutHeader(hdr[:], h)
		copy(out, hdr[from:min(to, wire.HeaderSize)])
	}
	// Filler words start at HeaderSize+8k and exist only whole
	// (at+8 <= size); begin at the word holding from, which may
	// straddle the window's start, and end at one straddling its end.
	at := wire.HeaderSize
	if from > at {
		at += (from - at) &^ 7
	}
	seed := uint64(id) * 0x9e3779b97f4a7c15
	for ; at < to && at+8 <= size; at += 8 {
		v := seed + uint64(at)
		if at >= from && at+8 <= to {
			binary.BigEndian.PutUint64(out[at-from:], v)
			continue
		}
		var w [8]byte
		binary.BigEndian.PutUint64(w[:], v)
		lo, hi := max(at, from), min(at+8, to)
		copy(out[lo-from:], w[lo-at:hi-at])
	}
	return dst
}
