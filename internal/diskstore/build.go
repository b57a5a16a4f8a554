package diskstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/spatial"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// objRec is one sorted-object-file record: the object's cell and HC
// value, 16 bytes fixed. The object's ID is its record index (HC
// rank), so it is not stored.
type objRec struct {
	X, Y uint32
	HC   uint64
}

const objRecSize = 16

var objCodec = Codec[objRec]{
	Size: objRecSize,
	Put: func(dst []byte, v objRec) {
		binary.LittleEndian.PutUint32(dst[0:], v.X)
		binary.LittleEndian.PutUint32(dst[4:], v.Y)
		binary.LittleEndian.PutUint64(dst[8:], v.HC)
	},
	Get: func(src []byte) objRec {
		return objRec{
			X:  binary.LittleEndian.Uint32(src[0:]),
			Y:  binary.LittleEndian.Uint32(src[4:]),
			HC: binary.LittleEndian.Uint64(src[8:]),
		}
	},
}

// PointStream is a dataset as a stream: the generator identity a
// network client rebuilds it from (the catalog document's dataset
// section) plus the point generator itself, which emits points in
// generation order — the external sorter puts them in HC order.
type PointStream struct {
	Kind  string // catalog kind: "uniform" or "real"
	N     int
	Order uint
	Seed  int64
	Gen   func(emit func(p spatial.Point, hc uint64))
}

// UniformStream streams the UNIFORM dataset: identical objects to
// dataset.Uniform(n, order, seed), never materialized.
func UniformStream(n int, order uint, seed int64) PointStream {
	return PointStream{Kind: "uniform", N: n, Order: order, Seed: seed,
		Gen: func(emit func(spatial.Point, uint64)) {
			dataset.UniformPoints(n, order, seed, emit)
		}}
}

// RealStream streams the REAL-like dataset at the paper's default
// configuration — the only clustered shape network clients can rebuild
// from a catalog document (netrecv regenerates "real" via
// dataset.DefaultRealConfig).
func RealStream(seed int64) PointStream {
	cfg := dataset.DefaultRealConfig(seed)
	return PointStream{Kind: "real", N: cfg.N, Order: cfg.Order, Seed: seed,
		Gen: func(emit func(spatial.Point, uint64)) {
			dataset.ClusteredPoints(cfg, emit)
		}}
}

// BuildOptions bounds the out-of-core build.
type BuildOptions struct {
	// Budget is the maximum number of object records held in heap by
	// the sort (16 bytes each); 0 selects DefaultBudget.
	Budget int
	// TmpDir hosts the sort spill runs and the object/frame sidecar
	// files, which are removed when the build returns; empty uses the
	// image's directory.
	TmpDir string
}

// BuildStats reports what a streaming image build produced.
type BuildStats struct {
	Geo         dsi.Geometry
	Checksum    uint64
	SpilledRuns int
}

// BuildImage builds the wire-cycle image of the single-channel DSI
// broadcast of ps under cfg, holding at most opt.Budget object records
// in heap: points stream through the external sorter into a sorted
// object file and a per-frame minHC file, which are then mmap'd and
// replayed as the exact transmitter byte stream. The result is
// byte-identical to WriteImage over station.NewTransmitter(dsi.Build(
// dataset, cfg)) — regression-enforced — without ever materializing
// the dataset, the index, or the cycle.
//
// Multi-channel and erasure-coded broadcasts are imaged from their
// in-memory transmitters via WriteImage; the streaming path covers the
// single-channel geometry, which is the one whose cycle outgrows RAM
// first (one cycle carries every object).
func BuildImage(imgPath string, ps PointStream, cfg dsi.Config, opt BuildOptions) (BuildStats, error) {
	var stats BuildStats
	if cfg.ReserveMCPtr {
		return stats, fmt.Errorf("diskstore: the streaming build images single-channel broadcasts; ReserveMCPtr is multi-channel")
	}
	geo, cfg, err := dsi.PlanGeometry(ps.N, cfg)
	if err != nil {
		return stats, err
	}
	stats.Geo = geo

	tmp := opt.TmpDir
	if tmp == "" {
		tmp = filepath.Dir(imgPath)
	}

	sorter, err := NewSorter(tmp, objCodec, func(a, b objRec) bool { return a.HC < b.HC }, opt.Budget)
	if err != nil {
		return stats, err
	}
	defer sorter.Close()
	var addErr error
	ps.Gen(func(p spatial.Point, hc uint64) {
		if addErr == nil {
			addErr = sorter.Add(objRec{X: p.X, Y: p.Y, HC: hc})
		}
	})
	if addErr != nil {
		return stats, addErr
	}
	if got := sorter.Len(); got != int64(ps.N) {
		return stats, fmt.Errorf("diskstore: generator emitted %d objects, want %d", got, ps.N)
	}
	st, err := sorter.Merge()
	if err != nil {
		return stats, err
	}
	stats.SpilledRuns = sorter.Spilled()

	objPath := filepath.Join(tmp, filepath.Base(imgPath)+".objects.tmp")
	framesPath := filepath.Join(tmp, filepath.Base(imgPath)+".frames.tmp")
	defer os.Remove(objPath)
	defer os.Remove(framesPath)
	sum, err := spillSorted(st, geo, ps.Order, objPath, framesPath)
	if err != nil {
		return stats, err
	}
	stats.Checksum = sum
	if err := sorter.Close(); err != nil {
		return stats, err
	}

	src, err := OpenStreamSource(objPath, framesPath, geo, cfg)
	if err != nil {
		return stats, err
	}
	defer src.Close()

	meta := wire.StationMeta{
		Dataset: wire.StationDataset{
			Kind: ps.Kind, N: ps.N, Order: ps.Order, Seed: ps.Seed, Sum: sum,
		},
		Capacity: cfg.Capacity, Segments: cfg.Segments, ObjectBytes: cfg.ObjectBytes,
		Channels: 1, Scheduler: "single",
	}
	info := ImageInfo{Capacity: cfg.Capacity, ChanSlots: []int{geo.CycleSlots()}, Meta: meta}
	if err := WriteImageFile(imgPath, src, info); err != nil {
		return stats, err
	}
	return stats, nil
}

func newBufWriter(f *os.File) *bufio.Writer { return bufio.NewWriterSize(f, runReadBuf) }

// spillSorted drains the sorted stream into the object file (16-byte
// records in HC order) and the frames file (8-byte minHC per frame),
// computing the dataset checksum on the way past.
func spillSorted(st *Stream[objRec], geo dsi.Geometry, order uint, objPath, framesPath string) (uint64, error) {
	objF, err := os.Create(objPath)
	if err != nil {
		return 0, err
	}
	defer objF.Close()
	framesF, err := os.Create(framesPath)
	if err != nil {
		return 0, err
	}
	defer framesF.Close()

	ow := newBufWriter(objF)
	fw := newBufWriter(framesF)
	sum := dataset.NewChecksumBuilder(order)
	var rec [objRecSize]byte
	var prev uint64
	rank := 0
	for {
		v, ok := st.Next()
		if !ok {
			break
		}
		if rank > 0 && v.HC <= prev {
			return 0, fmt.Errorf("diskstore: duplicate or unordered HC %d at rank %d", v.HC, rank)
		}
		prev = v.HC
		sum.Add(spatial.Point{X: v.X, Y: v.Y})
		objCodec.Put(rec[:], v)
		if _, err := ow.Write(rec[:]); err != nil {
			return 0, err
		}
		if rank%geo.NO == 0 {
			var m [8]byte
			binary.LittleEndian.PutUint64(m[:], v.HC)
			if _, err := fw.Write(m[:]); err != nil {
				return 0, err
			}
		}
		rank++
	}
	if err := st.Err(); err != nil {
		return 0, err
	}
	if rank != geo.N {
		return 0, fmt.Errorf("diskstore: sorted stream carried %d objects, want %d", rank, geo.N)
	}
	if err := ow.Flush(); err != nil {
		return 0, err
	}
	if err := fw.Flush(); err != nil {
		return 0, err
	}
	if err := objF.Sync(); err != nil {
		return 0, err
	}
	if err := framesF.Sync(); err != nil {
		return 0, err
	}
	return sum.Sum(), nil
}

// StreamSource replays the single-channel broadcast of a disk-resident
// sorted dataset as a station.PacketSource: packet for packet what
// station.Transmitter emits over the in-memory build, but backed by
// the mmap'd object and frame files. It is the byte producer behind
// BuildImage; serving should use the image (ImageSource), whose
// packets need no per-call encoding.
type StreamSource struct {
	geo dsi.Geometry
	cfg dsi.Config
	obj *mapping // objRec per object, HC order
	min *mapping // uint64 minHC per frame

	tabPos   int
	tab      []byte
	entries  []dsi.TableEntry
	objIdx   int
	objBytes []byte
}

// OpenStreamSource maps the sidecar files of a streaming build. geo
// and cfg must be the PlanGeometry results the files were built under.
func OpenStreamSource(objPath, framesPath string, geo dsi.Geometry, cfg dsi.Config) (*StreamSource, error) {
	obj, err := openMapping(objPath)
	if err != nil {
		return nil, err
	}
	min, err := openMapping(framesPath)
	if err != nil {
		obj.close()
		return nil, err
	}
	if got, want := len(obj.data), geo.N*objRecSize; got != want {
		obj.close()
		min.close()
		return nil, fmt.Errorf("diskstore: object file is %dB, geometry wants %dB", got, want)
	}
	if got, want := len(min.data), geo.NF*8; got != want {
		obj.close()
		min.close()
		return nil, fmt.Errorf("diskstore: frames file is %dB, geometry wants %dB", got, want)
	}
	return &StreamSource{geo: geo, cfg: cfg, obj: obj, min: min, tabPos: -1, objIdx: -1}, nil
}

// Close unmaps the sidecar files.
func (s *StreamSource) Close() error {
	err := s.obj.close()
	if e := s.min.close(); err == nil {
		err = e
	}
	return err
}

func (s *StreamSource) minHC(f int) uint64 {
	return binary.LittleEndian.Uint64(s.min.data[f*8:])
}

func (s *StreamSource) object(i int) objRec {
	return objCodec.Get(s.obj.data[i*objRecSize:])
}

// CycleSlots returns the broadcast cycle length in packet slots.
func (s *StreamSource) CycleSlots() int { return s.geo.CycleSlots() }

// PacketAt implements station.PacketSource. The slot arithmetic
// follows station.Transmitter's; the object bytes come from the same
// synthesizer (station.AppendObjectBytes), cached one object at a time
// because a sequential sweep asks for each object's packets in turn.
func (s *StreamSource) PacketAt(ch int, abs int64) (station.Packet, uint32) {
	if ch != 0 {
		panic(fmt.Sprintf("diskstore: packet request for channel %d of a single-channel stream source", ch))
	}
	g := &s.geo
	slot := int(abs % int64(g.CycleSlots()))
	pos := slot / g.FramePackets
	within := slot % g.FramePackets
	p := station.Packet{Slot: uint32(slot)}

	if within < g.TablePackets {
		p.Flags = station.FlagIndex
		tab, err := s.tableAt(pos)
		if err != nil {
			panic(fmt.Sprintf("diskstore: position %d: %v", pos, err))
		}
		from := within * g.Capacity
		if from < len(tab) {
			to := from + g.Capacity
			if to > len(tab) {
				to = len(tab)
			}
			p.Payload = tab[from:to]
		}
		return p, 1
	}

	o := (within - g.TablePackets) / g.ObjPackets
	part := (within - g.TablePackets) % g.ObjPackets
	first, num := g.FrameObjects(g.PosToFrame(pos))
	if o >= num {
		return p, 1 // padding slot of a partial last frame
	}
	id := first + o
	if id != s.objIdx {
		obj := s.object(id)
		s.objBytes = station.AppendObjectBytes(nil,
			wire.ObjectHeader{X: obj.X, Y: obj.Y, HC: obj.HC}, id, s.cfg.ObjectBytes, 0, s.cfg.ObjectBytes)
		s.objIdx = id
	}
	payload := s.objBytes
	from := part * g.Capacity
	to := from + g.Capacity
	if to > len(payload) {
		to = len(payload)
	}
	if part == 0 {
		p.Flags = station.FlagObjectStart
	}
	if from < len(payload) {
		p.Payload = payload[from:to]
	}
	return p, 1
}

// tableAt encodes (and caches) the index table of the frame at cycle
// position pos, exactly as dsi.Build precomputes it.
func (s *StreamSource) tableAt(pos int) ([]byte, error) {
	if pos == s.tabPos {
		return s.tab, nil
	}
	g := &s.geo
	t := dsi.Table{Pos: pos, OwnHC: s.minHC(g.PosToFrame(pos)), Entries: s.entries[:0]}
	dist := 1
	for i := 0; i < g.E; i++ {
		tp := (pos + dist) % g.NF
		t.Entries = append(t.Entries, dsi.TableEntry{TargetPos: tp, MinHC: s.minHC(g.PosToFrame(tp))})
		dist *= g.Base
	}
	s.entries = t.Entries
	tab, err := wire.EncodeTable(t, g.NF)
	if err != nil {
		return nil, err
	}
	s.tab, s.tabPos = tab, pos
	return tab, nil
}

// DirectoryAt implements station.PacketSource: a single-channel
// broadcast ships no shard directory.
func (s *StreamSource) DirectoryAt(int64) ([]byte, uint32) { return nil, 1 }

// FECDescAt implements station.FECSource: the streaming build is
// uncoded.
func (s *StreamSource) FECDescAt(int64) ([]byte, uint32) { return nil, 1 }
