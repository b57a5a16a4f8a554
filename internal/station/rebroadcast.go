// Online re-planning, transmitter side: a Rebroadcaster keeps a
// multi-channel DSI broadcast on air while its shard directory is
// swapped for a freshly planned one. The swap is staged, then takes
// effect at a cycle seam: the global seam is the next index-channel
// cycle boundary, and every data channel cuts over at its own first
// old-cycle boundary at or after that slot — channels never truncate a
// cycle mid-frame, so old-version frames keep streaming across the
// transition window while the index channel already carries the new
// directory. Receivers holding the old directory stay consistent with
// what their channels still transmit until they pick up the version
// bump; from the bump and the old geometry they can compute every
// channel's cutover slot (the seam arithmetic below is deliberately a
// pure function of the old directory plus the announced seam).
//
// With no swap staged — or a swap to an identical shard map — the
// rebroadcaster is packet-for-packet the plain Transmitter, which
// is the regression contract the drift experiment's control arm rests
// on.

package station

import (
	"fmt"
	"sync"

	"dsi/internal/dsi"
	"dsi/internal/obs"
	"dsi/internal/wire"
)

// Rebroadcaster serves the live byte streams of a sharded broadcast
// across shard-directory swaps. It is safe for concurrent use: many
// reader goroutines may call PacketAt/DirectoryAt while one control
// goroutine stages and commits swaps.
type Rebroadcaster struct {
	mu sync.RWMutex

	// fcfg is the erasure code of the generation on air. Stage keeps it;
	// StageFEC swaps it with the directory, so each generation carries
	// its own code (nextCfg while staged). The zero config is the uncoded
	// rebroadcaster. curFec/nextFec are the versioned FEC descriptors
	// mirroring curDir/nextDir — always encoded, even for the zero code,
	// so coded receivers can follow a swap that turns coding off.
	fcfg    wire.FECConfig
	nextCfg wire.FECConfig
	curFec  []byte
	nextFec []byte

	// met, when set, counts swaps staged/committed, the version on air,
	// and per-channel packets emitted. Nil counts nothing.
	met *obs.StationMetrics

	cur     *Transmitter
	version uint32
	// phase[ch] is the absolute slot at which channel ch's current
	// program has cycle phase 0. The initial directory is anchored at
	// slot 0; every swap re-anchors a channel at its cutover seam.
	phase []int64
	// curDir is the versioned encoding of the directory on air,
	// announcing the seam at which it took effect (slot 0 for the
	// initial one). The payload is immutable once on air, so it is
	// encoded once per swap and DirectoryAt serves it as-is.
	curDir []byte

	// Staged swap; nil when none is in flight.
	next *Transmitter
	// seam[ch] is channel ch's cutover slot: the first boundary of its
	// old cycle at or after swapSlot.
	seam     []int64
	swapSlot int64
	nextDir  []byte
}

// NewRebroadcaster puts the layout on air as directory version 1,
// anchored at slot 0.
func NewRebroadcaster(lay *dsi.Layout) (*Rebroadcaster, error) {
	return NewRebroadcasterFEC(lay, wire.FECConfig{})
}

// NewRebroadcasterFEC is NewRebroadcaster with an erasure code: every
// generation of the broadcast — the initial layout and each staged
// one — is encoded under cfg, and the versioned FEC descriptor rides
// alongside the shard directory. The zero config is the plain
// rebroadcaster.
func NewRebroadcasterFEC(lay *dsi.Layout, cfg wire.FECConfig) (*Rebroadcaster, error) {
	t, err := NewMultiTransmitterFEC(lay, cfg)
	if err != nil {
		return nil, err
	}
	dir, err := wire.EncodeDirV(lay, 1, 0)
	if err != nil {
		return nil, err // rebroadcasting is defined by its directory
	}
	r := &Rebroadcaster{
		fcfg:    cfg,
		cur:     t,
		version: 1,
		phase:   make([]int64, lay.Channels()),
		curDir:  dir,
	}
	if r.curFec, err = wire.EncodeFECDesc(cfg, 1); err != nil {
		return nil, err
	}
	return r, nil
}

// SetObs installs the station metric bundle. Call before the broadcast
// goes live; nil (the default) counts nothing.
func (r *Rebroadcaster) SetObs(m *obs.StationMetrics) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.met = m
	if m != nil {
		m.DirVersion.Set(float64(r.version))
	}
}

// Layout returns the layout currently on air (the staged one only after
// Commit).
func (r *Rebroadcaster) Layout() *dsi.Layout {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cur.Lay
}

// Version returns the directory version currently on air at the start
// of the transition window (the staged directory is Version()+1).
func (r *Rebroadcaster) Version() uint32 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.version
}

// InTransition reports whether a staged swap has not been committed.
func (r *Rebroadcaster) InTransition() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.next != nil
}

// Stage schedules a swap to a new layout of the same broadcast: the
// global seam is the first index-channel cycle boundary strictly after
// now, and each channel cuts over at its first own-cycle boundary at or
// after it. Returns the global seam slot. Staging fails while a swap is
// already in flight, or when the new layout does not describe the same
// index over the same channels. The erasure code carries over from the
// generation on air; use StageFEC to change it with the swap.
func (r *Rebroadcaster) Stage(lay *dsi.Layout, now int64) (int64, error) {
	r.mu.RLock()
	cfg := r.fcfg
	r.mu.RUnlock()
	return r.StageFEC(lay, cfg, now)
}

// StageFEC is Stage with a code change riding the swap: the staged
// generation is encoded under cfg, and the versioned FEC descriptor
// announcing it crosses the air with the new directory. Receivers
// adopt the new code at the seam exactly as they adopt the new shard
// map. The zero cfg turns coding off from the seam on.
func (r *Rebroadcaster) StageFEC(lay *dsi.Layout, cfg wire.FECConfig, now int64) (int64, error) {
	// The transmitter build is O(broadcast bytes): do it before taking
	// the write lock so concurrent readers never stall on it.
	old := r.Layout()
	if lay.X != old.X {
		return 0, fmt.Errorf("station: staged layout serves a different index")
	}
	if lay.Channels() != old.Channels() {
		return 0, fmt.Errorf("station: staged layout has %d channels, air has %d", lay.Channels(), old.Channels())
	}
	if lay.StartCh != old.StartCh {
		return 0, fmt.Errorf("station: staged layout moves the index channel")
	}
	if now < 0 {
		return 0, fmt.Errorf("station: negative stage time %d", now)
	}
	t, err := NewMultiTransmitterFEC(lay, cfg)
	if err != nil {
		return 0, err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next != nil {
		return 0, fmt.Errorf("station: a directory swap is already in flight (seam %d)", r.swapSlot)
	}
	if r.cur.Lay != old {
		// A Stage+Commit raced past the pre-lock validation; the
		// control loop is a single goroutine, so this is misuse.
		return 0, fmt.Errorf("station: broadcast changed while staging")
	}

	// Global seam: next index-channel cycle boundary strictly after now.
	// On a coded broadcast the cycles — and so the seams — live in the
	// physical slot domain; units tile each cycle, so a physical cycle
	// boundary never splits a unit or its parity tail, and the staged
	// layout re-encodes cleanly from its seam.
	idx := old.StartCh
	idxLen := int64(r.cur.ChanSlots(idx))
	rel := now - r.phase[idx]
	swap := r.phase[idx] + (rel/idxLen+1)*idxLen

	seam := make([]int64, old.Channels())
	for ch := range seam {
		l := int64(r.cur.ChanSlots(ch))
		rel := swap - r.phase[ch]
		k := rel / l
		if rel%l != 0 {
			k++
		}
		seam[ch] = r.phase[ch] + k*l
	}
	dir, err := wire.EncodeDirV(lay, r.version+1, swap)
	if err != nil {
		return 0, err
	}
	fec, err := wire.EncodeFECDesc(cfg, r.version+1)
	if err != nil {
		return 0, err
	}
	r.next = t
	r.nextCfg = cfg
	r.nextFec = fec
	r.seam = seam
	r.swapSlot = swap
	r.nextDir = dir
	if r.met != nil {
		r.met.SwapsStaged.Inc()
		if cfg != r.fcfg {
			r.met.CodeSwapsStaged.Inc()
		}
	}
	return swap, nil
}

// Commit finalizes a staged swap once every channel has crossed its
// seam: the staged layout becomes current, anchored per channel at its
// cutover slot, and the version increments. It reports whether the
// commit happened (false while a channel is still streaming its last
// old cycle, or when no swap is staged).
func (r *Rebroadcaster) Commit(now int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next == nil {
		return false
	}
	for _, s := range r.seam {
		if now < s {
			return false
		}
	}
	r.cur = r.next
	r.phase = r.seam
	r.curDir = r.nextDir
	r.curFec = r.nextFec
	r.fcfg = r.nextCfg
	r.version++
	r.next = nil
	r.seam = nil
	r.nextDir = nil
	r.nextFec = nil
	if r.met != nil {
		r.met.SwapsCommitted.Inc()
		r.met.DirVersion.Set(float64(r.version))
	}
	return true
}

// PacketAt returns the packet channel ch transmits at absolute slot
// abs, together with the directory version governing it: the staged
// version past the channel's seam, the current one before.
func (r *Rebroadcaster) PacketAt(ch int, abs int64) (Packet, uint32) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.met.PacketEmitted(ch)
	if r.next != nil && abs >= r.seam[ch] {
		l := int64(r.next.ChanSlots(ch))
		return r.next.Packet(ch, int((abs-r.seam[ch])%l)), r.version + 1
	}
	l := int64(r.cur.ChanSlots(ch))
	rel := (abs - r.phase[ch]) % l
	if rel < 0 {
		rel += l
	}
	return r.cur.Packet(ch, int(rel)), r.version
}

// DirectoryAt returns the versioned shard directory on air at absolute
// slot abs: the staged directory from the global seam on (the index
// channel is the first to cut over — the announcement rides with it),
// the current one before. The returned bytes are the rebroadcaster's
// pre-encoded state: callers must not modify them.
func (r *Rebroadcaster) DirectoryAt(abs int64) ([]byte, uint32) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.next != nil && abs >= r.swapSlot {
		return r.nextDir, r.version + 1
	}
	return r.curDir, r.version
}

// FECDescAt implements FECSource: the versioned FEC descriptor on air
// at absolute slot abs, versioned in lockstep with DirectoryAt (nil on
// an uncoded rebroadcaster).
func (r *Rebroadcaster) FECDescAt(abs int64) ([]byte, uint32) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.next != nil && abs >= r.swapSlot {
		return r.nextFec, r.version + 1
	}
	return r.curFec, r.version
}

// SeamOf returns channel ch's cutover slot of the staged swap; ok is
// false when no swap is in flight.
func (r *Rebroadcaster) SeamOf(ch int) (int64, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.next == nil {
		return 0, false
	}
	return r.seam[ch], true
}
