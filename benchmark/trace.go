// Tracing for the per-layer run. Spans are recorded from this package
// only, by decorators at the two seams every query crosses — a
// dsi.Receiver wrapper (the client/receiver seam) and a
// station.PacketSource wrapper (the receiver/station seam) — plus the
// benchmark's own query loop and netsrv's Tick hook. The decorators
// forward every optional method the layers type-assert, so a wrapped
// stack runs the same program as a bare one (trace_test.go).

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"dsi/internal/broadcast"
	"dsi/internal/dsi"
	"dsi/internal/station"
)

// Layer names: the key per-layer aggregates are kept under.
const (
	layerQuery = "query"   // one client query, opened by the workload loop
	layerRx    = "rx"      // a dsi.Receiver call
	layerTx    = "tx"      // a station.PacketSource call
	layerFlush = "netsrv"  // one netsrv pacer flush (Tick to Tick)
	layerDisk  = "disk"    // a diskstore call made by the image workload
	layerRep   = "massive" // one massive.Run replay of an arm
)

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch; Parent is the index of the enclosing span within the
// same tracer's dump, -1 at the root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Query  int64  `json:"query"`
	Tracer int    `json:"tracer"`
}

// agg accumulates one layer's spans: how many, their summed duration,
// and their summed self time (duration minus time covered by child
// spans).
type agg struct {
	n     int64
	total int64
	self  int64
}

type frame struct {
	layer string
	start int64
	child int64 // ns covered by direct children so far
	kept  int   // index in spans, -1 when not kept
}

// tracer records the spans of one goroutine: a worker's query loop
// with its receiver and source decorators, or the station's pacer.
// It is not safe for concurrent use.
type tracer struct {
	id    int
	epoch time.Time
	query int64 // current query id, -1 outside a query

	stack []frame
	aggs  map[string]*agg

	// Spans are kept in full only for the first keepQueries queries
	// and the first keepOther spans outside any query, so memory stays
	// bounded however long the run; the aggregates cover every span.
	spans     []span
	keptQ     int
	keepQuery bool
	keptOther int
}

const (
	keepQueries = 20
	keepOther   = 2000
)

func newTracer(id int, epoch time.Time) *tracer {
	return &tracer{id: id, epoch: epoch, query: -1, aggs: map[string]*agg{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginQuery opens a query span; every span until endQuery carries id.
func (t *tracer) beginQuery(id int64) {
	t.query = id
	t.keepQuery = t.keptQ < keepQueries
	if t.keepQuery {
		t.keptQ++
	}
	t.begin(layerQuery, "query")
}

func (t *tracer) endQuery() {
	t.end()
	t.query = -1
	t.keepQuery = false
}

func (t *tracer) begin(layer, name string) {
	kept := -1
	keep := t.keepQuery
	if t.query < 0 && t.keptOther < keepOther {
		keep = true
		t.keptOther++
	}
	now := t.now()
	if keep {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].kept
		}
		kept = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Query: t.query, Tracer: t.id})
	}
	t.stack = append(t.stack, frame{layer: layer, start: now, kept: kept})
}

func (t *tracer) end() {
	now := t.now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := now - f.start
	a := t.aggs[f.layer]
	if a == nil {
		a = &agg{}
		t.aggs[f.layer] = a
	}
	a.n++
	a.total += d
	a.self += d - f.child
	if n > 0 {
		t.stack[n-1].child += d
	}
	if f.kept >= 0 {
		t.spans[f.kept].End = now
	}
}

// abort drops the open spans after a panic unwound through them.
func (t *tracer) abort() {
	t.stack = t.stack[:0]
	t.query = -1
	t.keepQuery = false
}

// mergeAggs sums the per-layer aggregates of several tracers.
func mergeAggs(ts []*tracer) map[string]agg {
	out := map[string]agg{}
	for _, t := range ts {
		if t == nil {
			continue
		}
		for k, a := range t.aggs {
			m := out[k]
			m.n += a.n
			m.total += a.total
			m.self += a.self
			out[k] = m
		}
	}
	return out
}

// writeSpans dumps every kept span of the tracers as JSON lines.
func writeSpans(path string, ts []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range ts {
		if t == nil {
			continue
		}
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRx decorates a dsi.Receiver with one rx span per call.
type tracedRx struct {
	in dsi.Receiver
	t  *tracer
}

// tracedRxV additionally forwards Version, which netrecv and obs
// type-assert on the receivers they hold.
type tracedRxV struct {
	tracedRx
	v interface{ Version() uint32 }
}

func (r tracedRxV) Version() uint32 { return r.v.Version() }

// wrapRx returns rx decorated with spans on t, exposing exactly the
// optional methods rx exposes.
func wrapRx(rx dsi.Receiver, t *tracer) dsi.Receiver {
	base := tracedRx{in: rx, t: t}
	if v, ok := rx.(interface{ Version() uint32 }); ok {
		return tracedRxV{tracedRx: base, v: v}
	}
	return base
}

func (r tracedRx) Layout() *dsi.Layout  { return r.in.Layout() }
func (r tracedRx) Now() int64           { return r.in.Now() }
func (r tracedRx) Pos() int             { return r.in.Pos() }
func (r tracedRx) Channel() int         { return r.in.Channel() }
func (r tracedRx) PhaseOf(ch int) int64 { return r.in.PhaseOf(ch) }

func (r tracedRx) Stats() broadcast.Stats { return r.in.Stats() }

func (r tracedRx) Tune(ch int) {
	r.t.begin(layerRx, "rx.Tune")
	r.in.Tune(ch)
	r.t.end()
}

func (r tracedRx) DozeUntilPos(pos int) {
	r.t.begin(layerRx, "rx.DozeUntilPos")
	r.in.DozeUntilPos(pos)
	r.t.end()
}

func (r tracedRx) Next() (broadcast.Slot, bool) {
	r.t.begin(layerRx, "rx.Next")
	s, ok := r.in.Next()
	r.t.end()
	return s, ok
}

func (r tracedRx) Table(pos int) (*dsi.Table, bool) {
	r.t.begin(layerRx, "rx.Table")
	tab, ok := r.in.Table(pos)
	r.t.end()
	return tab, ok
}

func (r tracedRx) Header(pos, o int) (uint64, bool) {
	r.t.begin(layerRx, "rx.Header")
	hc, ok := r.in.Header(pos, o)
	r.t.end()
	return hc, ok
}

func (r tracedRx) Object(pos, o, skip int) bool {
	r.t.begin(layerRx, "rx.Object")
	ok := r.in.Object(pos, o, skip)
	r.t.end()
	return ok
}

func (r tracedRx) Poll() (*dsi.Layout, bool) {
	r.t.begin(layerRx, "rx.Poll")
	lay, ok := r.in.Poll()
	r.t.end()
	return lay, ok
}

func (r tracedRx) Follow(lay *dsi.Layout) {
	r.t.begin(layerRx, "rx.Follow")
	r.in.Follow(lay)
	r.t.end()
}

func (r tracedRx) Reset(probeSlot int64, loss *broadcast.LossModel) {
	r.t.begin(layerRx, "rx.Reset")
	r.in.Reset(probeSlot, loss)
	r.t.end()
}

func (r tracedRx) SetChannelLoss(ch int, loss *broadcast.LossModel) error {
	return r.in.SetChannelLoss(ch, loss)
}

// tracedSrc decorates a station.PacketSource with one tx span per
// PacketAt. The optional methods the layers type-assert on a source —
// station.FECSource (FECReceiver, netsrv, diskstore), Channels()
// (netsrv without a layout), Layout() and Version() (netsrv's live meta
// over a Rebroadcaster) — are forwarded by the variants below, chosen
// to match the wrapped source exactly.
type tracedSrc struct {
	in station.PacketSource
	t  *tracer
}

func (s tracedSrc) PacketAt(ch int, abs int64) (station.Packet, uint32) {
	s.t.begin(layerTx, "tx.PacketAt")
	p, v := s.in.PacketAt(ch, abs)
	s.t.end()
	return p, v
}

func (s tracedSrc) DirectoryAt(abs int64) ([]byte, uint32) { return s.in.DirectoryAt(abs) }

type (
	fecSrc   = station.FECSource
	chanSrc  = interface{ Channels() int }
	laySrc   = interface{ Layout() *dsi.Layout }
	verSrc   = interface{ Version() uint32 }
	srcF     struct{ tracedSrc }
	srcFC    struct{ srcF }
	srcFLV   struct{ srcF }
	srcShape struct{ fec, ch, lay, ver bool }
)

func (s srcF) FECDescAt(abs int64) ([]byte, uint32) { return s.in.(fecSrc).FECDescAt(abs) }
func (s srcFC) Channels() int                       { return s.in.(chanSrc).Channels() }
func (s srcFLV) Layout() *dsi.Layout                { return s.in.(laySrc).Layout() }
func (s srcFLV) Version() uint32                    { return s.in.(verSrc).Version() }

func shapeOf(src any) srcShape {
	_, f := src.(fecSrc)
	_, c := src.(chanSrc)
	_, l := src.(laySrc)
	_, v := src.(verSrc)
	return srcShape{fec: f, ch: c, lay: l, ver: v}
}

// wrapSrc returns src decorated with spans on t. Every source the
// repository ships has one of the shapes below (transmitters and the
// network feed: FEC; the mmap'd image: FEC+Channels; the
// rebroadcaster: FEC+Layout+Version); any other shape is refused
// rather than silently changing which optional methods the layers see.
func wrapSrc(src station.PacketSource, t *tracer) (station.PacketSource, error) {
	base := tracedSrc{in: src, t: t}
	switch shapeOf(src) {
	case srcShape{}:
		return base, nil
	case srcShape{fec: true}:
		return srcF{base}, nil
	case srcShape{fec: true, ch: true}:
		return srcFC{srcF{base}}, nil
	case srcShape{fec: true, lay: true, ver: true}:
		return srcFLV{srcF{base}}, nil
	}
	return nil, fmt.Errorf("benchmark: no transparent decorator for a %T source (shape %+v)", src, shapeOf(src))
}
