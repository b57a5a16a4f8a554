// Erasure-coded transmission: the encoder side of in-stream loss
// recovery. A coded broadcast protects each semantic unit a receiver
// reads contiguously — one frame's index table, one data object
// (padding objects included) — with a parity tail appended right after
// the unit in the physical stream. Unit members interleave across the
// code's groups (member i joins group i mod Groups, parity packets
// interleave the same way), so a loss burst shorter than the group
// count lands on distinct groups and each sees at most one erasure.
//
// The physical cycle is therefore the logical cycle with G*R parity
// slots spliced in after every unit. Units tile each channel's logical
// cycle exactly, so physical cycle boundaries coincide with logical
// ones and the Rebroadcaster's seam arithmetic carries over verbatim
// with physical channel lengths — a staged layout re-encodes its
// parity at the seam like any other cycle boundary. With the zero
// FECConfig there are no parity slots, the physical and logical
// domains coincide, and every coded type is packet-for-packet the
// plain transmitter it extends.

package station

import (
	"fmt"

	"dsi/internal/broadcast"
	"dsi/internal/dsi"
	"dsi/internal/wire"
)

// FECSource is the optional PacketSource extension of a coded station:
// the versioned FEC descriptor on air at an absolute slot (nil when
// the broadcast is uncoded). The descriptor version mirrors the shard
// directory's, so a receiver adopting a directory bump can check the
// code metadata crossing the seam with it.
type FECSource interface {
	FECDescAt(abs int64) ([]byte, uint32)
}

// fecUnit is one protected unit on one channel.
type fecUnit struct {
	logStart  int // first logical slot of the unit on its channel
	physStart int // first physical slot
	n         int // content packets
	table     bool
	pos       int // cycle position of the owning frame
	obj       int // object index within the frame; -1 for table units
}

// fecChan is the physical geometry of one channel.
type fecChan struct {
	units    []fecUnit
	log2phys []int32 // logical slot -> physical slot
	logOf    []int32 // physical slot -> logical slot (parity maps to the next content slot)
	unitOf   []int32 // physical slot -> unit index
	member   []int32 // physical slot -> member index within the unit; -1 for parity
	physLen  int
}

// fecGeom is the full physical geometry of a coded layout: derived
// from the layout and the code alone, so transmitter and receiver
// compute identical geometries from catalog knowledge.
type fecGeom struct {
	cfg wire.FECConfig
	lay *dsi.Layout
	chs []fecChan
	air *broadcast.Air // physical air the receiver's tuner runs on
}

func (g *fecGeom) code(table bool) wire.FECCode {
	if table {
		return g.cfg.Table
	}
	return g.cfg.Object
}

// newFECGeom derives the physical geometry of a layout under a code.
// Supported layouts are those with per-unit-contiguous channels: the
// classic single channel and the split/sharded multi-channel layouts
// (stripe channels can wrap a unit across the cycle seam, which would
// split its parity tail).
func newFECGeom(lay *dsi.Layout, cfg wire.FECConfig) (*fecGeom, error) {
	x := lay.X
	if err := cfg.Validate(x.TablePackets, x.ObjPackets); err != nil {
		return nil, err
	}
	if lay.Channels() > 1 && lay.Sched != dsi.SchedSplit && lay.Sched != dsi.SchedShard {
		return nil, fmt.Errorf("station: FEC needs per-unit-contiguous channels; %v layouts are unsupported", lay.Sched)
	}
	g := &fecGeom{cfg: cfg, lay: lay, chs: make([]fecChan, lay.Channels())}
	chans := make([]*broadcast.Channel, lay.Channels())
	for ch := range g.chs {
		c := &g.chs[ch]
		logLen := lay.ChanLen(ch)
		prog := lay.Air.Channels[ch].Program
		c.log2phys = make([]int32, logLen)
		var slots []broadcast.Slot

		for s := 0; s < logLen; {
			u := fecUnit{logStart: s, physStart: len(slots)}
			if pos, part, ok := lay.SlotTable(ch, s); ok {
				if part != 0 {
					return nil, fmt.Errorf("station: channel %d slot %d starts mid-table", ch, s)
				}
				u.table, u.pos, u.obj, u.n = true, pos, -1, x.TablePackets
			} else if pos, off, ok := lay.SlotData(ch, s); ok {
				if off%x.ObjPackets != 0 {
					return nil, fmt.Errorf("station: channel %d slot %d starts mid-object", ch, s)
				}
				u.pos, u.obj, u.n = pos, off/x.ObjPackets, x.ObjPackets
			} else {
				return nil, fmt.Errorf("station: channel %d slot %d is neither table nor data", ch, s)
			}
			code := g.code(u.table)
			ui := int32(len(c.units))
			kind := broadcast.KindData
			if u.table {
				kind = broadcast.KindIndex
			}
			for i := 0; i < u.n; i++ {
				c.log2phys[s+i] = int32(len(slots))
				c.logOf = append(c.logOf, int32(s+i))
				c.unitOf = append(c.unitOf, ui)
				c.member = append(c.member, int32(i))
				slots = append(slots, prog.At(s+i))
			}
			nextLog := int32((s + u.n) % logLen)
			for t := 0; t < code.Tail(); t++ {
				// The parity tail interleaves like the members: row j of
				// group g sits at tail offset j*Groups+g, so consecutive
				// slots belong to distinct groups.
				c.logOf = append(c.logOf, nextLog)
				c.unitOf = append(c.unitOf, ui)
				c.member = append(c.member, -1)
				slots = append(slots, broadcast.Slot{Kind: kind, Owner: int32(u.pos), Part: -1})
			}
			c.units = append(c.units, u)
			s += u.n
		}
		c.physLen = len(slots)
		chans[ch] = &broadcast.Channel{Program: broadcast.Program{Capacity: x.Cfg.Capacity, Slots: slots}}
	}
	air, err := broadcast.NewAir(lay.Air.SwitchSlots, chans...)
	if err != nil {
		return nil, err
	}
	g.air = air
	return g, nil
}

// unitAt returns the unit containing a logical slot of a channel.
func (g *fecGeom) unitAt(ch, logSlot int) *fecUnit {
	c := &g.chs[ch]
	return &c.units[c.unitOf[c.log2phys[logSlot]]]
}

// buildParity precomputes every parity packet payload of one channel,
// indexed by physical slot (nil for content slots). logical serves the
// channel's logical packets.
func buildParity(c *fecChan, cfg wire.FECConfig, capacity int, logical func(log int) Packet) [][]byte {
	out := make([][]byte, c.physLen)
	for _, u := range c.units {
		code := cfg.Table
		if !u.table {
			code = cfg.Object
		}
		if !code.Enabled() {
			continue
		}
		// Member symbols: payloads zero-padded to capacity. Short and
		// absent payloads (table tails, padding objects) pad to all-zero
		// symbols, which the receiver reproduces from catalog geometry.
		syms := make([][]byte, u.n)
		for i := range syms {
			sym := make([]byte, capacity)
			copy(sym, logical(u.logStart+i).Payload)
			syms[i] = sym
		}
		for grp := 0; grp < code.Groups; grp++ {
			members, k := code.GroupMembers(u.n, grp)
			data := make([][]byte, 0, k)
			for i := grp; i < u.n; i += code.Groups {
				data = append(data, syms[i])
			}
			for j, sym := range wire.RSParity(data, code.Parity) {
				h := wire.ParityHeader{
					Unit:    uint32(u.logStart),
					Group:   uint8(grp),
					K:       uint8(k),
					R:       uint8(code.Parity),
					Index:   uint8(j),
					Members: members,
				}
				out[u.physStart+u.n+j*code.Groups+grp] = wire.EncodeParity(h, sym)
			}
		}
	}
	return out
}

// NewMultiTransmitterFEC returns the transmitter of a layout under an
// erasure code: every channel gains a parity tail after every index
// table and every object, and Packet and PacketAt run in the physical
// slot domain. The zero config is the plain transmitter.
func NewMultiTransmitterFEC(lay *dsi.Layout, cfg wire.FECConfig) (*Transmitter, error) {
	tables, err := wire.EncodeLayoutTables(lay)
	if err != nil {
		return nil, err
	}
	t := &Transmitter{Lay: lay, tables: tables}
	if !cfg.Enabled() {
		return t, nil
	}
	g, err := newFECGeom(lay, cfg)
	if err != nil {
		return nil, err
	}
	t.fec = g
	t.parity = make([][][]byte, lay.Channels())
	for ch := range t.parity {
		t.parity[ch] = buildParity(&g.chs[ch], cfg, lay.X.Cfg.Capacity,
			func(log int) Packet { return t.logicalPacket(ch, log) })
	}
	t.fecDesc, err = wire.EncodeFECDesc(cfg, 1)
	if err != nil {
		return nil, err
	}
	return t, nil
}
