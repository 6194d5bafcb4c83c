// Package lobstore is a faithful reimplementation of the three database
// storage structures for managing large objects compared in
//
//	A. Biliris, "The Performance of Three Database Storage Structures for
//	Managing Large Objects", Proc. ACM SIGMOD 1992.
//
// It provides, over a simulated disk with the paper's cost model (seek +
// transfer, buddy-system space allocation, a small buffer pool with hybrid
// multi-block segment buffering, and segment-granularity shadowing):
//
//   - ESM — the EXODUS large object structure: a positional B⁺-tree over
//     fixed-size multi-block leaf segments.
//   - Starburst — the long field manager: doubling extents with a flat
//     descriptor; reorganising inserts and deletes.
//   - EOS — a positional tree over variable-size segments with a segment
//     size threshold.
//
// All three implement the same Object interface. A DB is one simulated
// database; its clock only advances when I/O happens, so measured times are
// exactly reproducible.
//
//	db, _ := lobstore.Open(lobstore.DefaultConfig())
//	obj, _ := db.NewEOS(16)           // threshold of 16 pages
//	_ = obj.Append(make([]byte, 1<<20))
//	fmt.Println(db.Now())             // simulated time spent
package lobstore

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"time"

	"lobstore/internal/buddy"
	"lobstore/internal/buffer"
	"lobstore/internal/catalog"
	"lobstore/internal/core"
	"lobstore/internal/disk"
	"lobstore/internal/engine"
	"lobstore/internal/eos"
	"lobstore/internal/esm"
	"lobstore/internal/filevol"
	"lobstore/internal/obs"
	"lobstore/internal/sim"
	"lobstore/internal/starburst"
	"lobstore/internal/store"
)

// Object is one large object under any of the three managers. See the
// paper's §1 for the operation set. Objects are not safe for concurrent
// use; the simulation is single-threaded by design.
type Object = core.Object

// Utilization reports an object's disk footprint (§4.4.1).
type Utilization = core.Utilization

// Layout describes an object's physical structure: its data segments in
// byte order plus index pages. Obtain one with Inspect.
type Layout = core.Layout

// SegmentInfo is one data segment of a Layout.
type SegmentInfo = core.SegmentInfo

// Inspect returns the physical layout of any object created by this
// package.
func Inspect(obj Object) (Layout, error) {
	ins, ok := obj.(core.Inspector)
	if !ok {
		return Layout{}, fmt.Errorf("lobstore: object %T does not expose its layout", obj)
	}
	return ins.Layout()
}

// Config holds the simulated system parameters. DefaultConfig returns the
// paper's Table 1 values.
type Config struct {
	// PageSize is the disk block size in bytes (paper: 4096).
	PageSize int
	// SeekTime is charged once per I/O call (paper: 33 ms).
	SeekTime time.Duration
	// TransferPerKB is the transfer time per kilobyte (paper: 1 ms).
	TransferPerKB time.Duration
	// BufferPages is the buffer pool size in pages (paper: 12).
	BufferPages int
	// MaxBufferedRun is the largest segment, in pages, read into the pool
	// with one I/O (paper: 4).
	MaxBufferedRun int
	// LeafAreaPages sizes the database area for large object bytes.
	LeafAreaPages int
	// MetaAreaPages sizes the database area for index pages and roots.
	MetaAreaPages int
	// MaxSegmentPages is the largest allocatable segment; must be a power
	// of two (paper: 8192 pages = 32 MB with 4 KB blocks).
	MaxSegmentPages int
	// Materialize stores every byte written so that reads return real
	// data. Disable only for very large cost-only experiments.
	Materialize bool
	// Backend selects the byte-storage volume: "mem" (or empty — the
	// simulation default, identical output for identical seeds) or "file"
	// (a durable store of real files under Dir, crash-consistent on
	// reopen). The cost model, stats and tracing behave the same on both.
	Backend string
	// Dir is the directory holding a file-backed database (Backend
	// "file"): one file per database area plus a superblock. Opening an
	// existing directory reopens the database, running reachability
	// recovery, so a store that was killed mid-operation comes back with
	// every object intact.
	Dir string
	// SyncPolicy selects when file-backed writes are forced to stable
	// storage: "commit" (default — fsync at shadow-commit barriers, the
	// cheapest crash-consistent policy), "always" (fsync every write) or
	// "never" (fsync only on Close; a crash may lose recent operations).
	// Ignored by the mem backend.
	SyncPolicy string
	// CrashInjection enables power-cut injection on a file-backed store
	// (see DB.InjectPowerCut). Testing aid: every write then pays an extra
	// read to log its pre-image.
	CrashInjection bool
	// GroupCommit configures the file backend's commit pipeline, which
	// every durability barrier runs: up to MaxBatch concurrent commit
	// barriers are acknowledged by one device flush. Zero value = groups
	// of one, each barrier flushing for itself. It is a per-opening
	// I/O scheduling choice, not superblock geometry. Ignored
	// by the mem backend.
	GroupCommit GroupCommit
	// Concurrent serves the database through the concurrency engine
	// (internal/engine): object handles become safe for concurrent use
	// behind per-object FIFO locks, DB accessors are guarded, and every
	// read — Object.Read and DB.Snapshot alike — pins the committed leaf
	// extents it covers under the locks, then copies the bytes from the
	// volume outside them, piggybacking on §3.3 shadowing. Requires
	// Materialize, and refuses ESMOptions.NoShadow. Off by default — and
	// with it off, every code path, trace and paper table is
	// byte-identical to a build without the engine; the simulation stays
	// single-threaded and deterministic. Like GroupCommit it is a per-opening choice, not
	// superblock geometry. Size BufferPages generously: every committer
	// parked at a durability barrier keeps its dirty pages sticky
	// (shadow-protected) in the shared pool, so the paper's 12-frame
	// configuration starves once a handful of commits overlap — Open
	// enforces BufferPages >= MinConcurrentBufferPages (wrapping
	// ErrConfig) rather than letting FixRun fail mid-commit.
	Concurrent bool
}

// GroupCommit configures the file backend's group-commit barrier combiner
// (see internal/filevol).
type GroupCommit struct {
	// MaxBatch is the largest number of concurrent commit barriers one
	// device flush may acknowledge. Values <= 1 leave batching off: every
	// barrier is a batch of one. Nothing waits for company: device
	// flushes run one at a time outside the volume's lock, so a batch is
	// whoever arrived while the previous flush was in flight — batching
	// emerges from contention alone.
	MaxBatch int
}

// DefaultConfig returns the paper's fixed system parameters with database
// areas comfortable for 10 MB objects.
func DefaultConfig() Config {
	return Config{
		PageSize:        4096,
		SeekTime:        33 * time.Millisecond,
		TransferPerKB:   time.Millisecond,
		BufferPages:     12,
		MaxBufferedRun:  4,
		LeafAreaPages:   64 << 10, // 256 MB
		MetaAreaPages:   8 << 10,  // 32 MB
		MaxSegmentPages: 8192,     // 32 MB segments
		Materialize:     true,
	}
}

// Stats summarizes disk activity.
type Stats struct {
	ReadCalls    int64
	WriteCalls   int64
	PagesRead    int64
	PagesWritten int64
	// SeekDistance is the total head travel in pages across all I/O calls —
	// a locality measure the fixed per-call seek cost of the paper's model
	// does not capture.
	SeekDistance int64
	// Time is the simulated time the I/O took.
	Time time.Duration
}

// Calls returns the total number of I/O calls, each costing one seek.
func (s Stats) Calls() int64 { return s.ReadCalls + s.WriteCalls }

// Pages returns the total pages transferred.
func (s Stats) Pages() int64 { return s.PagesRead + s.PagesWritten }

// Sub returns the component-wise difference s − o.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		ReadCalls:    s.ReadCalls - o.ReadCalls,
		WriteCalls:   s.WriteCalls - o.WriteCalls,
		PagesRead:    s.PagesRead - o.PagesRead,
		PagesWritten: s.PagesWritten - o.PagesWritten,
		SeekDistance: s.SeekDistance - o.SeekDistance,
		Time:         s.Time - o.Time,
	}
}

func fromSim(st sim.Stats) Stats {
	return Stats{
		ReadCalls:    st.ReadCalls,
		WriteCalls:   st.WriteCalls,
		PagesRead:    st.PagesRead,
		PagesWritten: st.PagesWritten,
		SeekDistance: st.SeekDistance,
		Time:         st.Time.Std(),
	}
}

// DB is one simulated database instance: a disk, its buffer pool, the
// buddy-system space manager, an object catalog, and a clock that advances
// only on I/O.
type DB struct {
	st      *store.Store
	cfg     Config
	cat     *catalog.Catalog
	trace   *obs.JSONL
	metrics *obs.Metrics
	// vol is non-nil on a file-backed database: the durable volume under
	// the cost-accounting disk.
	vol *filevol.Volume
	// eng is non-nil when the database was opened with Config.Concurrent:
	// every operation and accessor routes through it. Nil in off mode, so
	// the deterministic single-threaded paths are untouched.
	eng *engine.Engine
}

// enableEngine routes the database through the concurrency layer.
func (db *DB) enableEngine() {
	db.eng = engine.New(db.st)
}

// storeParams translates the public configuration into store parameters.
func storeParams(cfg Config) store.Params {
	return store.Params{
		Model: sim.CostModel{
			PageSize:      cfg.PageSize,
			SeekTime:      sim.Duration(cfg.SeekTime.Microseconds()),
			TransferPerKB: sim.Duration(cfg.TransferPerKB.Microseconds()),
		},
		Pool:          buffer.Config{Frames: cfg.BufferPages, MaxRun: cfg.MaxBufferedRun},
		LeafAreaPages: cfg.LeafAreaPages,
		MetaAreaPages: cfg.MetaAreaPages,
		MaxOrder:      uint(bits.TrailingZeros(uint(cfg.MaxSegmentPages))),
		Materialize:   cfg.Materialize,
	}
}

// ErrConfig is the sentinel wrapped by every configuration rejection
// Open returns: errors.Is(err, lobstore.ErrConfig) distinguishes "fix
// your Config" from I/O and recovery failures, so front-ends (lobctl,
// lobserve) can print the message and exit without a stack of retries.
var ErrConfig = errors.New("invalid configuration")

// ErrNotExist is the sentinel wrapped by OpenObject and Snapshot when no
// object with the requested name is cataloged. Front-ends use
// errors.Is(err, lobstore.ErrNotExist) to tell "create it" (a lobload
// preload probe, a lobctl reopen) from store failures.
var ErrNotExist = errors.New("object does not exist")

// MinConcurrentBufferPages is the smallest buffer pool Open accepts with
// Config.Concurrent set. Every committer parked at a durability barrier
// keeps its dirty pages sticky (shadow-protected) in the shared pool, so
// the paper's 12-frame configuration starves — FixRun returns ErrNoRun —
// once a handful of commits overlap.
const MinConcurrentBufferPages = 64

// Open creates a fresh simulated database (Backend "mem", the default), or
// creates/reopens a durable file-backed one (Backend "file", rooted at
// Dir). Reopening runs reachability recovery, so a file-backed database
// that was killed mid-operation comes back crash-consistent.
//
// Configuration errors wrap ErrConfig.
func Open(cfg Config) (*DB, error) {
	if cfg.MaxSegmentPages < 1 || bits.OnesCount(uint(cfg.MaxSegmentPages)) != 1 {
		return nil, fmt.Errorf("lobstore: %w: MaxSegmentPages %d must be a power of two", ErrConfig, cfg.MaxSegmentPages)
	}
	if cfg.Concurrent && !cfg.Materialize {
		return nil, fmt.Errorf("lobstore: %w: Concurrent requires Materialize (pinned reads lend leaf bytes from the volume)", ErrConfig)
	}
	if cfg.Concurrent && cfg.BufferPages < MinConcurrentBufferPages {
		return nil, fmt.Errorf("lobstore: %w: Concurrent with BufferPages %d is starvation-prone (parked committers pin their shadow pages in the shared pool; need >= %d)",
			ErrConfig, cfg.BufferPages, MinConcurrentBufferPages)
	}
	switch cfg.Backend {
	case "", "mem":
		return openMem(cfg)
	case "file":
		return openFile(cfg)
	}
	return nil, fmt.Errorf("lobstore: %w: unknown backend %q (mem, file)", ErrConfig, cfg.Backend)
}

// openMem creates a fresh in-memory simulated database.
func openMem(cfg Config) (*DB, error) {
	params := storeParams(cfg)
	if cfg.Concurrent {
		// The raw memory volume reallocates area storage on growth; latch
		// it so concurrent committers and pinned reads can share it.
		params.Volume = engine.NewLatchedVolume(disk.NewMemVolume(cfg.PageSize))
	}
	st, err := store.Open(params)
	if err != nil {
		return nil, err
	}
	// The catalog claims the first metadata page, so reopening and
	// recovery find it without a bootstrap pointer.
	cat, err := catalog.New(st)
	if err != nil {
		return nil, err
	}
	if cat.Root() != catalogAddr() {
		return nil, fmt.Errorf("lobstore: catalog landed at %v, expected %v", cat.Root(), catalogAddr())
	}
	db := &DB{st: st, cfg: cfg, cat: cat}
	if cfg.Concurrent {
		db.enableEngine()
	}
	return db, nil
}

// Config returns the configuration the database was opened with.
func (db *DB) Config() Config { return db.cfg }

// run executes f against the store: as one engine operation under the
// store mutex when the engine is on, directly otherwise — so off mode stays
// the deterministic single-threaded path, closure and all.
func (db *DB) run(f func() error) error {
	if db.eng != nil {
		return db.eng.Run(f)
	}
	return f()
}

// view is run for accessors that perform no operation and cannot fail.
func (db *DB) view(f func()) {
	if db.eng != nil {
		db.eng.View(f)
		return
	}
	f()
}

// object produces an object through produce, a manager constructor or
// opener, under run. With the engine on the result is wrapped in a handle
// that locks the object, keyed by its root, per call.
func (db *DB) object(produce func() (managed, error)) (Object, error) {
	var m managed
	err := db.run(func() (err error) {
		m, err = produce()
		return err
	})
	if err != nil {
		return nil, err
	}
	if db.eng != nil {
		return db.eng.WrapObject(m, m.Root()), nil
	}
	return m, nil
}

// NewESM creates an ESM large object with the given fixed leaf size in
// pages (the paper evaluates 1, 4, 16 and 64).
func (db *DB) NewESM(leafPages int) (Object, error) {
	return db.NewESMOpts(ESMOptions{LeafPages: leafPages})
}

// NewESMBasic creates an ESM object using the basic (even-split) insert
// algorithm instead of the improved one — the paper's §3.4 ablation.
func (db *DB) NewESMBasic(leafPages int) (Object, error) {
	return db.NewESMOpts(ESMOptions{LeafPages: leafPages, BasicInsert: true})
}

// ESMOptions configures ablation variants of the ESM structure.
type ESMOptions struct {
	// LeafPages is the fixed leaf segment size in pages.
	LeafPages int
	// BasicInsert selects the basic even-split insert algorithm.
	BasicInsert bool
	// WholeLeafIO reads entire leaves even for partial byte ranges,
	// reproducing the [Care86] simulation assumption (§4.5).
	WholeLeafIO bool
	// NoShadow applies in-leaf updates in place, removing the §3.3
	// shadowing cost. A Concurrent database refuses it: its reads copy
	// committed leaf bytes outside the locks, relying on no write ever
	// changing them.
	NoShadow bool
}

// NewESMOpts creates an ESM object with explicit ablation options.
// Options a Concurrent database refuses wrap ErrConfig.
func (db *DB) NewESMOpts(o ESMOptions) (Object, error) {
	if o.NoShadow && db.cfg.Concurrent {
		return nil, fmt.Errorf("lobstore: %w: ESM NoShadow overwrites committed leaf bytes, which Concurrent reads copy unlocked", ErrConfig)
	}
	cfg := esm.Config{LeafPages: o.LeafPages, WholeLeafIO: o.WholeLeafIO, NoShadow: o.NoShadow}
	if o.BasicInsert {
		cfg.Insert = esm.Basic
	}
	return db.object(func() (managed, error) { return esm.New(db.st, cfg) })
}

// NewStarburst creates a Starburst long field. maxSegmentPages caps the
// doubling growth pattern (0 selects the allocator maximum).
func (db *DB) NewStarburst(maxSegmentPages int) (Object, error) {
	return db.NewStarburstKnownSize(maxSegmentPages, 0)
}

// NewStarburstKnownSize creates a Starburst long field whose eventual size
// is declared up front, so maximal segments are used from the start (§2.2).
func (db *DB) NewStarburstKnownSize(maxSegmentPages int, knownSize int64) (Object, error) {
	cfg := starburst.Config{MaxSegmentPages: maxSegmentPages, KnownSize: knownSize}
	return db.object(func() (managed, error) { return starburst.New(db.st, cfg) })
}

// NewEOS creates an EOS large object with the given segment size threshold
// in pages (the paper evaluates 1, 4, 16 and 64).
func (db *DB) NewEOS(threshold int) (Object, error) {
	return db.NewEOSMaxSeg(threshold, 0)
}

// NewEOSMaxSeg creates an EOS object with an explicit maximum segment size.
func (db *DB) NewEOSMaxSeg(threshold, maxSegmentPages int) (Object, error) {
	cfg := eos.Config{Threshold: threshold, MaxSegmentPages: maxSegmentPages}
	return db.object(func() (managed, error) { return eos.New(db.st, cfg) })
}

// Now returns the simulated time spent on I/O so far. In concurrent mode
// the read is serialized with in-flight operations; in off mode the
// database is single-threaded by contract, so the unguarded read is
// exact.
func (db *DB) Now() (now time.Duration) {
	db.view(func() { now = db.st.Clock.Now().Std() })
	return now
}

// Stats returns cumulative disk activity. Safe while operations are in
// flight in concurrent mode (the counters are read under the engine's
// store mutex, and the volume reads of pinned copies, which bypass the
// simulated disk, are added to ReadCalls and PagesRead); in off mode the
// caller is the only thread by contract.
func (db *DB) Stats() Stats {
	var st sim.Stats
	db.view(func() { st = db.st.Disk.Stats() })
	if db.eng != nil {
		calls, pages := db.eng.ReadStats()
		st.ReadCalls += calls
		st.PagesRead += pages
	}
	return fromSim(st)
}

// Measure runs f and returns the disk activity it caused. In concurrent
// mode the delta also includes whatever other clients did while f ran —
// per-client attribution needs a quiesced database.
func (db *DB) Measure(f func() error) (Stats, error) {
	before := db.Stats()
	err := f()
	return db.Stats().Sub(before), err
}

// PoolHitRate returns buffer pool hits and misses so far.
func (db *DB) PoolHitRate() (hits, misses int64) {
	db.view(func() { hits, misses = db.st.Pool.HitRate() })
	return hits, misses
}

// PoolVictimStats returns the cost of buffer-pool victim selection so far:
// frames visited in age order, and searches that found every candidate
// window dirty and fell back to scanning the whole pool.
func (db *DB) PoolVictimStats() (steps, fallbacks int64) {
	db.view(func() { steps, fallbacks = db.st.Pool.VictimStats() })
	return steps, fallbacks
}

// SpaceInUse reports the allocated page counts of the data and metadata
// areas.
func (db *DB) SpaceInUse() (dataPages, metaPages int64) {
	db.view(func() { dataPages, metaPages = db.st.Leaf.UsedBlocks(), db.st.Meta.UsedBlocks() })
	return dataPages, metaPages
}

// Metrics is an aggregating event sink: per-operation counters plus
// fixed-bucket histograms for I/O call sizes, seek distances, tree descent
// depths and per-operation simulated latency. Obtain one with EnableMetrics.
type Metrics = obs.Metrics

// NewMetrics returns an empty metrics registry, for sharing across several
// databases via EnableMetrics.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// Fragmentation is a point-in-time snapshot of a buddy allocator's free
// lists. Obtain one with LeafFragmentation.
type Fragmentation = buddy.Fragmentation

// TraceWriter encodes observability events as JSONL, one JSON object per
// line. Create one with NewTraceWriter to share a single trace stream
// across several databases; a lone database can use EnableTrace directly.
type TraceWriter = obs.JSONL

// NewTraceWriter returns a trace writer appending to w. The writer buffers;
// call its Flush (or the owning database's FlushTrace) before reading the
// output.
func NewTraceWriter(w io.Writer) *TraceWriter { return obs.NewJSONL(w) }

// EnableTrace attaches a JSONL trace sink: from now on every observability
// event — operation spans, disk I/O, buffer traffic, allocator and tree
// activity — is appended to w, one JSON object per line. Call FlushTrace
// before reading the output. Tracing costs one encoded line per event; when
// neither tracing nor metrics are enabled the event layer is free.
func (db *DB) EnableTrace(w io.Writer) {
	db.AttachTrace(obs.NewJSONL(w))
}

// AttachTrace attaches an existing trace writer, so several databases can
// append to the same stream: the event layer (tracer and sinks) is
// goroutine-safe, so databases driven from different goroutines may share
// one writer. Objects themselves remain single-threaded.
func (db *DB) AttachTrace(t *TraceWriter) {
	db.trace = t
	db.st.Obs.Attach(t)
}

// FlushTrace flushes buffered trace events to the underlying writer. It is
// a no-op when tracing is not enabled.
func (db *DB) FlushTrace() error {
	if db.trace == nil {
		return nil
	}
	return db.trace.Flush()
}

// EnableMetrics attaches an aggregating metrics registry and returns it.
// Passing nil creates a fresh registry; passing an existing one accumulates
// into it, so several databases can share a registry.
func (db *DB) EnableMetrics(m *Metrics) *Metrics {
	if m == nil {
		m = obs.NewMetrics()
	}
	db.metrics = m
	db.st.Obs.Attach(m)
	if db.eng != nil {
		db.eng.SetMetrics(m)
	}
	return m
}

// Metrics returns the registry attached with EnableMetrics, or nil when
// metrics are disabled. The registry itself is internally synchronized,
// so reading it while operations are in flight is safe in concurrent
// mode; in off mode the database is single-threaded by contract.
func (db *DB) Metrics() *Metrics { return db.metrics }

// LeafFragmentation snapshots the free-list state of the data area's buddy
// allocator. It inspects only the cached directory — no I/O is charged.
func (db *DB) LeafFragmentation() (f Fragmentation) {
	db.view(func() { f = db.st.Leaf.Fragmentation() })
	return f
}

// InjectIOFailure arms disk fault injection: the next calls I/O operations
// succeed, after which every operation fails with err until re-armed
// (calls < 0 disables injection). Use together with Crash to test recovery
// behaviour.
func (db *DB) InjectIOFailure(calls int64, err error) { db.st.Disk.FailAfter(calls, err) }

// PageSize returns the disk block size.
func (db *DB) PageSize() int { return db.cfg.PageSize }
