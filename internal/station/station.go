// Package station prototypes the transmitter side of a location-based
// wireless broadcast system — the paper's stated future work
// (section 6). Where the simulator accounts packet costs symbolically,
// the station materializes the actual byte stream: every packet of the
// DSI broadcast cycle with its index-table or object payload encoded by
// internal/wire, framed with the position header clients use to
// synchronize.
//
// The package also provides the receiving side needed to prove the
// stream is self-describing: Scan rebuilds the complete broadcast
// metadata (frame boundaries, minimum HC values, object headers) from
// one cycle of raw packets alone, which is the property all of DSI's
// client algorithms rest on.
package station

import (
	"encoding/binary"
	"fmt"

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
// broadcast channel on multi-channel airs; the classic single-channel
// transmitter always emits channel 0, and Scan rejects anything else.
type Packet struct {
	Ch      uint8  // broadcast channel
	Slot    uint32 // per-channel cycle slot
	Flags   byte
	Payload []byte // at most Capacity bytes
}

// Transmitter materializes the byte stream of a DSI broadcast. A
// transmitter built by NewTransmitterFEC additionally interleaves
// parity packets and runs in the physical slot domain (see fec.go).
type Transmitter struct {
	x      *dsi.Index
	tables [][]byte

	fec     *fecGeom
	parity  [][]byte // per physical slot; nil for content slots
	fecDesc []byte

	// met, when set, counts packets served via PacketAt.
	met *obs.StationMetrics
}

// SetObs installs the station metric bundle (nil counts nothing).
func (t *Transmitter) SetObs(m *obs.StationMetrics) { t.met = m }

// NewTransmitter prepares the per-frame table encodings.
func NewTransmitter(x *dsi.Index) (*Transmitter, error) {
	tables, err := wire.EncodeFrameTables(x)
	if err != nil {
		return nil, err
	}
	return &Transmitter{x: x, tables: tables}, nil
}

// Packet returns the packet broadcast at the given cycle slot. Object
// payloads are the wire header followed by deterministic filler (a real
// deployment would carry the application payload). On a coded
// transmitter the slot is physical and parity slots carry their
// encoded parity frames.
func (t *Transmitter) Packet(slot int) Packet {
	if t.fec == nil {
		return t.logicalPacket(slot)
	}
	c := &t.fec.chs[0]
	slot %= c.physLen
	if par := t.parity[slot]; par != nil {
		return Packet{Slot: uint32(slot), Flags: flagParity, Payload: par}
	}
	p := t.logicalPacket(int(c.logOf[slot]))
	p.Slot = uint32(slot)
	return p
}

// Capacity returns the transmitter's packet capacity in bytes.
func (t *Transmitter) Capacity() int { return t.x.Cfg.Capacity }

// CycleSlots returns the broadcast cycle length in packet slots —
// physical slots on a coded transmitter.
func (t *Transmitter) CycleSlots() int {
	if t.fec != nil {
		return t.fec.chs[0].physLen
	}
	return t.x.Prog.Len()
}

func (t *Transmitter) logicalPacket(slot int) Packet {
	x := t.x
	slot %= x.Prog.Len()
	pos := slot / x.FramePackets
	within := slot % x.FramePackets
	p := Packet{Slot: uint32(slot)}

	if within < x.TablePackets {
		p.Flags = flagIndex
		tab := t.tables[pos]
		from := within * x.Cfg.Capacity
		if from < len(tab) {
			to := from + x.Cfg.Capacity
			if to > len(tab) {
				to = len(tab)
			}
			p.Payload = tab[from:to]
		}
		return p
	}

	o := (within - x.TablePackets) / x.ObjPackets
	part := (within - x.TablePackets) % x.ObjPackets
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

// Cycle streams one full broadcast cycle into the channel and closes it.
func (t *Transmitter) Cycle(out chan<- Packet) {
	for slot := 0; slot < t.CycleSlots(); slot++ {
		out <- t.Packet(slot)
	}
	close(out)
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

// FrameInfo is what Scan reconstructs per frame from the raw stream.
type FrameInfo struct {
	Pos     int
	MinHC   uint64
	Headers []wire.ObjectHeader
}

// Scan consumes one cycle of packets and reconstructs the broadcast
// metadata: per-position index tables (validated) and every object
// header. It fails on any inconsistency between the stream and the
// catalog geometry (capacity, frame packets) — the checks a receiver
// would apply.
func Scan(x *dsi.Index, in <-chan Packet) ([]FrameInfo, error) {
	frames := make([]FrameInfo, 0, x.NF)
	var cur *FrameInfo
	var tableBuf []byte
	expect := 0

	for p := range in {
		if p.Ch != 0 {
			return nil, fmt.Errorf("station: packet on channel %d in a single-channel scan", p.Ch)
		}
		if int(p.Slot) != expect {
			return nil, fmt.Errorf("station: slot %d arrived, want %d", p.Slot, expect)
		}
		expect++
		if len(p.Payload) > x.Cfg.Capacity {
			return nil, fmt.Errorf("station: slot %d payload %dB exceeds capacity", p.Slot, len(p.Payload))
		}
		slot := int(p.Slot)
		pos := slot / x.FramePackets
		within := slot % x.FramePackets

		if within == 0 {
			frames = append(frames, FrameInfo{Pos: pos})
			cur = &frames[len(frames)-1]
			tableBuf = tableBuf[:0]
		}
		switch {
		case within < x.TablePackets:
			if p.Flags&flagIndex == 0 {
				return nil, fmt.Errorf("station: slot %d: table packet not flagged", p.Slot)
			}
			tableBuf = append(tableBuf, p.Payload...)
			if within == x.TablePackets-1 {
				if want := x.TableBytes(); len(tableBuf) < want {
					return nil, fmt.Errorf("station: position %d: table truncated to %dB, want %dB",
						pos, len(tableBuf), want)
				}
				tab, err := wire.DecodeTable(tableBuf[:x.TableBytes()], pos, x.NF)
				if err != nil {
					return nil, fmt.Errorf("station: position %d: %w", pos, err)
				}
				cur.MinHC = tab.OwnHC
			}
		case p.Flags&flagObjectStart != 0:
			h, err := wire.DecodeHeader(p.Payload)
			if err != nil {
				return nil, fmt.Errorf("station: slot %d: %w", p.Slot, err)
			}
			cur.Headers = append(cur.Headers, h)
		}
	}
	if len(frames) != x.NF {
		return nil, fmt.Errorf("station: scanned %d frames, want %d", len(frames), x.NF)
	}
	return frames, nil
}
