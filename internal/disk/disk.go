// Package disk implements the disk volume underneath the storage system,
// split into two layers:
//
//   - a narrow Volume interface that carries bytes: fixed-geometry database
//     areas moved in runs of physically adjacent pages (the in-memory
//     MemVolume here is the default backend; internal/filevol provides a
//     durable file-backed one);
//   - the Disk decorator in this file, which owns everything simulated and
//     observable — the shared clock, the seek+transfer cost model, stats,
//     event tracing and fault injection — so any backend gets identical
//     instrumentation.
//
// The disk is organised into database areas (the paper used two: one for the
// leaf segments of large objects and one for everything else, §4.1). Each
// area is a flat array of fixed-size pages. The unit of I/O is one call that
// moves a run of physically adjacent pages; each call is charged one seek
// plus per-page transfer time on the shared simulated clock.
//
// Unlike the paper's prototype — which only counted I/O calls and pages for
// the leaf area — this disk also materializes every byte written, so all
// experiments double as end-to-end correctness checks against a reference
// byte model. Materialization can be switched off for very large cost-only
// runs.
package disk

import (
	"fmt"

	"lobstore/internal/obs"
	"lobstore/internal/sim"
)

// PageID is a page number within one area. Page 0 is a valid page.
type PageID uint32

// AreaID identifies one database area on the disk.
type AreaID uint8

// Addr is the physical address of a page.
type Addr struct {
	Area AreaID
	Page PageID
}

func (a Addr) String() string { return fmt.Sprintf("%d:%d", a.Area, a.Page) }

// Add returns the address n pages after a within the same area.
func (a Addr) Add(n int) Addr {
	return Addr{Area: a.Area, Page: PageID(int64(a.Page) + int64(n))}
}

// Disk decorates a Volume with the simulated cost model: every I/O call is
// charged to the clock, counted in the stats, traced, and subject to fault
// injection, regardless of which backend carries the bytes. It is not safe
// for concurrent use; the simulation is single-threaded by design so that
// cost accounting is deterministic.
type Disk struct {
	vol         Volume
	model       sim.CostModel
	clock       *sim.Clock
	stats       sim.Stats
	areas       []areaGeom
	materialize bool
	obs         *obs.Tracer

	// head is the linear page position of the disk arm after the last
	// transfer, with all areas laid out consecutively. Seek distance of a
	// call is |start − head|.
	head int64

	// failAfter < 0 disables injection; otherwise that many further I/O
	// calls succeed and every one after them returns failErr.
	failAfter int64
	failErr   error

	// lastSync is the previous SyncStats snapshot of a GroupSyncer volume;
	// Barrier emits events only for the delta since it.
	lastSync SyncStats

	// syncInterpose, when set, wraps the device flush at the heart of
	// Barrier. The concurrent engine installs it to release the store-wide
	// mutex for exactly the duration of the flush, so concurrent
	// committers' barriers pile into the volume's group-commit batches
	// instead of serializing; everything around the flush — the SyncStats
	// delta and event emission — still runs under the caller's lock.
	syncInterpose func(sync func() error) error
}

// areaGeom mirrors one area's geometry for range checks and seek-distance
// accounting, so the hot paths never call through the Volume interface for
// bookkeeping.
type areaGeom struct {
	npages int
	base   int64 // linear page offset of the area's first page
}

// Option configures a Disk.
type Option func(*Disk)

// WithoutMaterialization disables byte storage: reads return zeros and
// writes only account cost. Used by very large scaling experiments. It is
// meaningless (and rejected) with a non-memory volume.
func WithoutMaterialization() Option {
	return func(d *Disk) { d.materialize = false }
}

// WithVolume selects the byte-storage backend. The default is a fresh
// MemVolume. The volume's page size must match the cost model's.
func WithVolume(v Volume) Option {
	return func(d *Disk) { d.vol = v }
}

// New creates a disk with the given cost model, charging all I/O to clock.
func New(model sim.CostModel, clock *sim.Clock, opts ...Option) (*Disk, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if clock == nil {
		return nil, fmt.Errorf("disk: nil clock")
	}
	d := &Disk{model: model, clock: clock, materialize: true, failAfter: -1}
	for _, o := range opts {
		o(d)
	}
	if d.vol == nil {
		d.vol = NewMemVolume(model.PageSize)
	}
	if ps := d.vol.PageSize(); ps != model.PageSize {
		return nil, fmt.Errorf("disk: volume page size %d, cost model page size %d", ps, model.PageSize)
	}
	if !d.materialize {
		if _, ok := d.vol.(*MemVolume); !ok {
			return nil, fmt.Errorf("disk: a non-memory volume always materializes")
		}
	}
	return d, nil
}

// Volume returns the byte-storage backend under this disk.
func (d *Disk) Volume() Volume { return d.vol }

// FailAfter arms fault injection: the next calls I/O operations succeed,
// after which every operation fails with err until FailAfter is re-armed
// or disabled with calls < 0. Testing aid for error-path coverage.
func (d *Disk) FailAfter(calls int64, err error) {
	d.failAfter = calls
	d.failErr = err
}

// SetTracer installs the event tracer. A nil tracer disables emission.
func (d *Disk) SetTracer(t *obs.Tracer) { d.obs = t }

// SetSyncInterpose installs (or, with nil, removes) the wrapper around the
// device flush inside Barrier. The wrapper receives the flush as a closure
// and must call it exactly once; see the field comment for why the
// concurrent engine wants this seam.
func (d *Disk) SetSyncInterpose(fn func(sync func() error) error) { d.syncInterpose = fn }

// Tracer returns the installed event tracer (possibly nil). The buffer
// pool and the space manager share the disk's tracer so one database
// yields one event stream.
func (d *Disk) Tracer() *obs.Tracer { return d.obs }

// checkInjected consumes one fault-injection credit. On the failing call
// it emits a terminal io.error event describing the attempted I/O, so
// traces of partial runs end with the cause of death.
func (d *Disk) checkInjected(addr Addr, npages int, write bool) error {
	if d.failAfter < 0 {
		return nil
	}
	if d.failAfter == 0 {
		if d.obs.Enabled() {
			aux := int64(0)
			if write {
				aux = 1
			}
			d.obs.Emit(obs.Event{
				Kind:  obs.KindIOError,
				Area:  uint8(addr.Area),
				Page:  uint32(addr.Page),
				Pages: int32(npages),
				Aux2:  aux,
				Err:   d.failErr.Error(),
			})
		}
		return d.failErr
	}
	d.failAfter--
	return nil
}

// Clock returns the simulated clock charged by this disk.
func (d *Disk) Clock() *sim.Clock { return d.clock }

// PageSize returns the page size in bytes.
func (d *Disk) PageSize() int { return d.model.PageSize }

// AddArea creates a new database area of npages pages and returns its id.
func (d *Disk) AddArea(npages int) (AreaID, error) {
	id, err := d.vol.AddArea(npages)
	if err != nil {
		return 0, err
	}
	var base int64
	for _, prev := range d.areas {
		base += int64(prev.npages)
	}
	d.areas = append(d.areas, areaGeom{npages: npages, base: base})
	if int(id) != len(d.areas)-1 {
		return 0, fmt.Errorf("disk: volume assigned area %d, expected %d", id, len(d.areas)-1)
	}
	return id, nil
}

// AreaPages returns the capacity, in pages, of area id.
func (d *Disk) AreaPages(id AreaID) (int, error) {
	a, err := d.area(id)
	if err != nil {
		return 0, err
	}
	return a.npages, nil
}

func (d *Disk) area(id AreaID) (*areaGeom, error) {
	if int(id) >= len(d.areas) {
		return nil, fmt.Errorf("disk: unknown area %d", id)
	}
	return &d.areas[id], nil
}

func (d *Disk) checkRange(a *areaGeom, addr Addr, npages int) error {
	if npages <= 0 {
		return fmt.Errorf("disk: page count %d must be positive", npages)
	}
	end := int64(addr.Page) + int64(npages)
	if end > int64(a.npages) {
		return fmt.Errorf("disk: range [%v,+%d) exceeds area of %d pages", addr, npages, a.npages)
	}
	return nil
}

// Read performs one I/O call fetching npages physically adjacent pages
// starting at addr into dst. dst must hold npages*PageSize bytes. The call
// costs one seek plus transfer time for npages pages.
func (d *Disk) Read(addr Addr, npages int, dst []byte) error {
	a, err := d.area(addr.Area)
	if err != nil {
		return err
	}
	if err := d.checkRange(a, addr, npages); err != nil {
		return err
	}
	n := npages * d.model.PageSize
	if len(dst) < n {
		return fmt.Errorf("disk: read buffer %d bytes, need %d", len(dst), n)
	}
	if err := d.checkInjected(addr, npages, false); err != nil {
		return fmt.Errorf("disk: read %v: %w", addr, err)
	}
	if d.materialize {
		if err := d.vol.ReadRun(addr, npages, dst); err != nil {
			return fmt.Errorf("disk: read %v: %w", addr, err)
		}
	} else {
		clear(dst[:n])
	}
	d.charge(a, addr, npages, false)
	return nil
}

// Write performs one I/O call storing npages physically adjacent pages from
// src starting at addr. src must hold npages*PageSize bytes.
func (d *Disk) Write(addr Addr, npages int, src []byte) error {
	a, err := d.area(addr.Area)
	if err != nil {
		return err
	}
	if err := d.checkRange(a, addr, npages); err != nil {
		return err
	}
	n := npages * d.model.PageSize
	if len(src) < n {
		return fmt.Errorf("disk: write buffer %d bytes, need %d", len(src), n)
	}
	if err := d.checkInjected(addr, npages, true); err != nil {
		return fmt.Errorf("disk: write %v: %w", addr, err)
	}
	if d.materialize {
		if err := d.vol.WriteRun(addr, npages, src); err != nil {
			return fmt.Errorf("disk: write %v: %w", addr, err)
		}
	}
	d.charge(a, addr, npages, true)
	return nil
}

// Barrier is the durability barrier of the shadow-commit protocol: it
// returns only when every previously written byte is stable, subject to
// the volume's sync policy. On the in-memory backend it is free, costs no
// simulated time and emits no events, so mem-backend cost output is
// unaffected by the barrier placement. On the file backend a traced
// barrier that flushed emits vol.groupcommit and vol.fsync events, batches
// of one when group commit is off.
func (d *Disk) Barrier() error {
	sync := d.vol.Sync
	if d.syncInterpose != nil {
		err := d.syncInterpose(sync)
		if err != nil {
			return fmt.Errorf("disk: sync barrier: %w", err)
		}
	} else if err := sync(); err != nil {
		return fmt.Errorf("disk: sync barrier: %w", err)
	}
	// The snapshot advances on every barrier, traced or not, so the first
	// event after the tracer attaches reports that barrier's delta and not
	// every flush since Open.
	if gs, ok := d.vol.(GroupSyncer); ok {
		cur := gs.SyncStats()
		delta := cur.Sub(d.lastSync)
		d.lastSync = cur
		if !d.obs.Enabled() {
			return nil
		}
		// Policies "always" and "never" flush nothing at a barrier and so
		// emit nothing here.
		if delta.Batches > 0 {
			d.obs.Emit(obs.Event{
				Kind:  obs.KindVolGroupCommit,
				Pages: int32(delta.Batches),
				Aux1:  delta.Barriers / delta.Batches,
				Aux2:  delta.Barriers,
			})
		}
		if delta.Fsyncs > 0 {
			d.obs.Emit(obs.Event{
				Kind: obs.KindVolFsync,
				Aux1: delta.Fsyncs,
			})
		}
	}
	return nil
}

// Close releases the volume. The disk is unusable afterwards.
func (d *Disk) Close() error { return d.vol.Close() }

func (d *Disk) charge(a *areaGeom, addr Addr, npages int, write bool) {
	cost := d.model.IOCost(npages)
	d.clock.Advance(cost)
	d.stats.Time += cost
	start := a.base + int64(addr.Page)
	seek := start - d.head
	if seek < 0 {
		seek = -seek
	}
	d.head = start + int64(npages)
	d.stats.SeekDistance += seek
	if write {
		d.stats.WriteCalls++
		d.stats.PagesWritten += int64(npages)
	} else {
		d.stats.ReadCalls++
		d.stats.PagesRead += int64(npages)
	}
	if d.obs.Enabled() {
		kind := obs.KindIORead
		if write {
			kind = obs.KindIOWrite
		}
		d.obs.Emit(obs.Event{
			Kind:  kind,
			Area:  uint8(addr.Area),
			Page:  uint32(addr.Page),
			Pages: int32(npages),
			Aux1:  seek,
		})
	}
}

// Stats returns a snapshot of cumulative disk activity.
func (d *Disk) Stats() sim.Stats { return d.stats }

// Peek copies the current on-disk bytes of a page range without performing
// (or charging) any I/O. It is a debugging/verification aid only and fails
// when the disk is not materialized.
func (d *Disk) Peek(addr Addr, npages int, dst []byte) error {
	a, err := d.area(addr.Area)
	if err != nil {
		return err
	}
	if !d.materialize {
		return fmt.Errorf("disk: area %d is not materialized", addr.Area)
	}
	if err := d.checkRange(a, addr, npages); err != nil {
		return err
	}
	n := npages * d.model.PageSize
	if len(dst) < n {
		return fmt.Errorf("disk: peek buffer %d bytes, need %d", len(dst), n)
	}
	return d.vol.ReadRun(addr, npages, dst)
}
