package diskstore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"dsi/internal/obs"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// The wire-cycle image file: the exact transmitter byte stream of a
// broadcast, laid out for O(1) mmap'd serving.
//
//	offset 0        magic "DSIMG\x00\x00\x01"
//	offset 8        slot records, channel 0 first, then channel 1, ...
//	                one record per per-channel cycle slot, fixed stride
//	                1 + 2 + SlotBytes:
//	                  [flags byte][payload length uint16 LE][payload,
//	                   zero-padded to SlotBytes]
//	                SlotBytes is Capacity on uncoded images and
//	                Capacity + wire.ParityHeaderSize on coded ones
//	                (parity packets carry their header on top of the
//	                capacity-sized symbol)
//	then            footer: JSON (imageFooter) — geometry, directory
//	                blob, FEC descriptor blob, station catalog meta
//	trailer (24B)   [footer length uint64 LE][footer FNV-1a uint64 LE]
//	                [trailer magic "DSIMGFTR"]
//
// PacketAt(ch, abs) is pure arithmetic into the mapping: the payload
// is a slice of the file, no per-packet allocation or copying.

var (
	imageMagic   = [8]byte{'D', 'S', 'I', 'M', 'G', 0, 0, 1}
	trailerMagic = [8]byte{'D', 'S', 'I', 'M', 'G', 'F', 'T', 'R'}
)

const trailerSize = 8 + 8 + 8

// imageFooter is the image's self-description, JSON-encoded between
// the slot records and the trailer.
type imageFooter struct {
	Capacity  int   `json:"capacity"`
	SlotBytes int   `json:"slot_bytes,omitempty"` // record payload width; 0 means Capacity
	ChanSlots []int `json:"chan_slots"`

	DirVersion uint32 `json:"dir_version,omitempty"`
	Dir        []byte `json:"dir,omitempty"`
	FECVersion uint32 `json:"fec_version,omitempty"`
	FECDesc    []byte `json:"fec_desc,omitempty"`

	Meta wire.StationMeta `json:"meta"`
}

// fnvSum is the trailer checksum over the footer bytes.
func fnvSum(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

const fnvOffset64, fnvPrime64 = 14695981039346656037, 1099511628211

// ImageInfo describes the broadcast being imaged.
type ImageInfo struct {
	Capacity  int
	SlotBytes int              // slot record payload width; 0 means Capacity
	ChanSlots []int            // per-channel cycle length in slots
	Meta      wire.StationMeta // catalog document (static fields)
}

// InfoFor derives ImageInfo for a static station.Transmitter. The
// second result is false for sources whose cycle geometry the image
// layer cannot determine (e.g. a live Rebroadcaster, whose stream is
// not a fixed cycle). A coded source (non-nil FEC descriptor) widens
// the slot records for its parity packets.
func InfoFor(src station.PacketSource, meta wire.StationMeta) (ImageInfo, bool) {
	t, ok := src.(*station.Transmitter)
	if !ok {
		return ImageInfo{}, false
	}
	slots := make([]int, t.Lay.Channels())
	for ch := range slots {
		slots[ch] = t.ChanSlots(ch)
	}
	info := ImageInfo{Capacity: t.Lay.X.Cfg.Capacity, ChanSlots: slots, Meta: meta}
	if fs, ok := src.(station.FECSource); ok {
		if desc, _ := fs.FECDescAt(0); desc != nil {
			info.SlotBytes = info.Capacity + wire.ParityHeaderSize
		}
	}
	return info, true
}

// WriteImage writes one full broadcast cycle of every channel of src
// as a wire-cycle image. src must be static (directory version 1,
// fixed cycles); parity slots of a coded source are imaged like any
// other slot, so FEC broadcasts serve from images unchanged.
func WriteImage(w io.Writer, src station.PacketSource, info ImageInfo) error {
	if info.Capacity < 8 {
		return fmt.Errorf("diskstore: image capacity %d too small", info.Capacity)
	}
	if len(info.ChanSlots) == 0 {
		return fmt.Errorf("diskstore: image needs at least one channel")
	}
	slotBytes := info.SlotBytes
	if slotBytes == 0 {
		slotBytes = info.Capacity
	}
	if slotBytes < info.Capacity || slotBytes > 0xffff {
		return fmt.Errorf("diskstore: slot payload width %d invalid for capacity %d", slotBytes, info.Capacity)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(imageMagic[:]); err != nil {
		return err
	}
	stride := 3 + slotBytes
	rec := make([]byte, stride)
	for ch, slots := range info.ChanSlots {
		if slots <= 0 {
			return fmt.Errorf("diskstore: channel %d has %d slots", ch, slots)
		}
		for slot := 0; slot < slots; slot++ {
			p, ver := src.PacketAt(ch, int64(slot))
			if ver != 1 {
				return fmt.Errorf("diskstore: channel %d slot %d served directory version %d; images need a static source", ch, slot, ver)
			}
			if int(p.Slot) != slot || int(p.Ch) != ch {
				return fmt.Errorf("diskstore: channel %d slot %d: source stamped packet (ch=%d, slot=%d)",
					ch, slot, p.Ch, p.Slot)
			}
			if len(p.Payload) > slotBytes {
				return fmt.Errorf("diskstore: channel %d slot %d: payload %dB exceeds slot width %d",
					ch, slot, len(p.Payload), slotBytes)
			}
			for i := range rec {
				rec[i] = 0
			}
			rec[0] = p.Flags
			binary.LittleEndian.PutUint16(rec[1:3], uint16(len(p.Payload)))
			copy(rec[3:], p.Payload)
			if _, err := bw.Write(rec); err != nil {
				return err
			}
		}
	}

	foot := imageFooter{Capacity: info.Capacity, ChanSlots: info.ChanSlots, Meta: info.Meta}
	if slotBytes != info.Capacity {
		foot.SlotBytes = slotBytes
	}
	foot.Dir, foot.DirVersion = src.DirectoryAt(0)
	if fs, ok := src.(station.FECSource); ok {
		foot.FECDesc, foot.FECVersion = fs.FECDescAt(0)
	}
	fb, err := json.Marshal(foot)
	if err != nil {
		return err
	}
	if _, err := bw.Write(fb); err != nil {
		return err
	}
	var tr [trailerSize]byte
	binary.LittleEndian.PutUint64(tr[0:8], uint64(len(fb)))
	binary.LittleEndian.PutUint64(tr[8:16], fnvSum(fb))
	copy(tr[16:], trailerMagic[:])
	if _, err := bw.Write(tr[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteImageFile is WriteImage to a file path.
func WriteImageFile(path string, src station.PacketSource, info ImageInfo) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteImage(f, src, info); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ImageSource serves a wire-cycle image as a station.PacketSource (and
// FECSource): PacketAt is index arithmetic into the mapped file, the
// payload a zero-copy slice of it. Opening is O(footer) regardless of
// image size.
type ImageSource struct {
	m         *mapping
	capacity  int
	slotBytes int
	stride    int64
	chanOff   []int64 // byte offset of each channel's first slot record
	chanSlots []int

	dirVer  uint32
	dir     []byte
	fecVer  uint32
	fecDesc []byte
	meta    wire.StationMeta

	met *obs.StationMetrics
}

// OpenImage maps the image at path. The footer is validated (magic,
// trailer, checksum, geometry consistency) before any packet is
// served; a truncated or corrupt image is rejected here.
func OpenImage(path string) (*ImageSource, error) {
	m, err := openMapping(path)
	if err != nil {
		return nil, err
	}
	s, err := newImageSource(m)
	if err != nil {
		m.close()
		return nil, err
	}
	return s, nil
}

func newImageSource(m *mapping) (*ImageSource, error) {
	data := m.data
	if len(data) < len(imageMagic)+trailerSize {
		return nil, fmt.Errorf("diskstore: image of %d bytes is truncated", len(data))
	}
	if string(data[:8]) != string(imageMagic[:]) {
		return nil, fmt.Errorf("diskstore: bad image magic %q", data[:8])
	}
	tr := data[len(data)-trailerSize:]
	if string(tr[16:]) != string(trailerMagic[:]) {
		return nil, fmt.Errorf("diskstore: bad trailer magic %q (image truncated?)", tr[16:])
	}
	footLen := binary.LittleEndian.Uint64(tr[0:8])
	footSum := binary.LittleEndian.Uint64(tr[8:16])
	body := uint64(len(data) - len(imageMagic) - trailerSize)
	if footLen > body {
		return nil, fmt.Errorf("diskstore: footer length %d exceeds image body %d", footLen, body)
	}
	fb := data[uint64(len(data))-trailerSize-footLen : len(data)-trailerSize]
	if got := fnvSum(fb); got != footSum {
		return nil, fmt.Errorf("diskstore: footer checksum %#x != trailer %#x (image corrupt)", got, footSum)
	}
	var foot imageFooter
	if err := json.Unmarshal(fb, &foot); err != nil {
		return nil, fmt.Errorf("diskstore: footer: %w", err)
	}
	if foot.Capacity < 8 {
		return nil, fmt.Errorf("diskstore: footer capacity %d invalid", foot.Capacity)
	}
	if len(foot.ChanSlots) == 0 {
		return nil, fmt.Errorf("diskstore: footer has no channels")
	}
	slotBytes := foot.SlotBytes
	if slotBytes == 0 {
		slotBytes = foot.Capacity
	}
	if slotBytes < foot.Capacity || slotBytes > 0xffff {
		return nil, fmt.Errorf("diskstore: footer slot width %d invalid for capacity %d", slotBytes, foot.Capacity)
	}
	s := &ImageSource{
		m: m, capacity: foot.Capacity, slotBytes: slotBytes, stride: int64(3 + slotBytes),
		chanSlots: foot.ChanSlots,
		dirVer:    foot.DirVersion, dir: foot.Dir,
		fecVer: foot.FECVersion, fecDesc: foot.FECDesc,
		meta: foot.Meta,
	}
	s.chanOff = make([]int64, len(foot.ChanSlots))
	off := int64(len(imageMagic))
	for ch, slots := range foot.ChanSlots {
		if slots <= 0 {
			return nil, fmt.Errorf("diskstore: footer channel %d has %d slots", ch, slots)
		}
		s.chanOff[ch] = off
		off += int64(slots) * s.stride
	}
	if want := off + int64(footLen) + trailerSize; want != int64(len(data)) {
		return nil, fmt.Errorf("diskstore: image is %d bytes, footer geometry implies %d (truncated or corrupt)",
			len(data), want)
	}
	return s, nil
}

// Close unmaps the image.
func (s *ImageSource) Close() error { return s.m.close() }

// SetObs installs the station metric bundle (nil counts nothing).
func (s *ImageSource) SetObs(m *obs.StationMetrics) { s.met = m }

// Channels returns the image's channel count.
func (s *ImageSource) Channels() int { return len(s.chanSlots) }

// ChanSlots returns channel ch's cycle length in slots.
func (s *ImageSource) ChanSlots(ch int) int { return s.chanSlots[ch] }

// Capacity returns the image's packet capacity in bytes.
func (s *ImageSource) Capacity() int { return s.capacity }

// Meta returns the catalog document baked into the image (static
// fields only; a serving daemon fills the live ones).
func (s *ImageSource) Meta() wire.StationMeta { return s.meta }

// PacketAt implements station.PacketSource by slicing the mapping.
func (s *ImageSource) PacketAt(ch int, abs int64) (station.Packet, uint32) {
	s.met.PacketEmitted(ch)
	slot := abs % int64(s.chanSlots[ch])
	rec := s.m.data[s.chanOff[ch]+slot*s.stride:]
	p := station.Packet{Ch: uint8(ch), Slot: uint32(slot), Flags: rec[0]}
	if n := int(binary.LittleEndian.Uint16(rec[1:3])); n > 0 && n <= s.slotBytes {
		p.Payload = rec[3 : 3+n : 3+n]
	}
	return p, 1
}

// DirectoryAt implements station.PacketSource from the footer blob.
func (s *ImageSource) DirectoryAt(int64) ([]byte, uint32) {
	if s.dir == nil {
		return nil, 1
	}
	return s.dir, s.dirVer
}

// FECDescAt implements station.FECSource from the footer blob.
func (s *ImageSource) FECDescAt(int64) ([]byte, uint32) {
	if s.fecDesc == nil {
		return nil, 1
	}
	return s.fecDesc, s.fecVer
}
