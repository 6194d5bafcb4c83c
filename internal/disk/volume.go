package disk

// Volume is the byte-carrying backend underneath the Disk decorator: a set
// of fixed-geometry database areas addressed by (area, page) that moves runs
// of physically adjacent pages. A Volume carries bytes only — it knows
// nothing about the simulated clock, the seek/transfer cost model, stats,
// tracing or fault injection, all of which live in the Disk decorator — so
// every backend (the in-memory default, the durable file-backed volume in
// internal/filevol) gets identical instrumentation.
//
// Implementations are not required to be safe for concurrent use; the
// storage system above is single-threaded by design, and the concurrent
// engine either uses a backend that is (the file volume) or latches one
// that is not (engine.LatchedVolume).
type Volume interface {
	// PageSize returns the page size in bytes. All runs are multiples of it.
	PageSize() int

	// AddArea creates (or, for durable backends, attaches to) the next
	// database area of npages pages and returns its id. Areas are created
	// in a fixed order, so ids are stable across reopenings.
	AddArea(npages int) (AreaID, error)

	// AreaPages returns the capacity, in pages, of area id.
	AreaPages(id AreaID) (int, error)

	// ReadRun copies npages adjacent pages starting at addr into dst.
	// Pages never written before read as zeros. dst holds at least
	// npages*PageSize bytes (the decorator validates).
	ReadRun(addr Addr, npages int, dst []byte) error

	// View appends to dst read-only slices that together hold the n bytes
	// that start off bytes past the first byte of page addr, crossing page
	// boundaries as needed, and returns the extended slice. Bytes never
	// written read as zeros. The slices lend the backend's own storage, not
	// a copy: the caller must not write them, and they stay valid only
	// while nothing rewrites or frees the bytes they cover — in the engine,
	// while the pin that resolved them is held — and the volume is open.
	// It is the byte-granular read of a pinned read (internal/engine),
	// which the cost-accounting decorator never sees.
	View(addr Addr, off, n int64, dst [][]byte) ([][]byte, error)

	// WriteRun stores npages adjacent pages from src starting at addr,
	// growing the backing store as needed. src holds at least
	// npages*PageSize bytes (the decorator validates). A durable backend
	// keeps its files dense: a run starting past a file's end first
	// zero-fills the gap, so no write leaves or lands in a sparse hole.
	WriteRun(addr Addr, npages int, src []byte) error

	// Sync is the durability barrier: when it returns, every previously
	// written byte has reached stable storage, subject to the backend's
	// sync policy. The in-memory volume has no durability and returns nil.
	Sync() error

	// Close releases backend resources. The volume is unusable afterwards.
	Close() error
}

// zeros is the block that views of never-written bytes lend. Views are
// read-only, so nothing ever writes it.
var zeros [64 << 10]byte

// AppendZeros appends to dst views of n zero bytes, all lent from one
// shared block, and returns the extended slice: the part of a View that
// lies past a backend's materialized bytes.
func AppendZeros(dst [][]byte, n int64) [][]byte {
	for n > 0 {
		k := min(n, int64(len(zeros)))
		dst = append(dst, zeros[:k:k])
		n -= k
	}
	return dst
}

// SyncStats are the cumulative durability counters of a backend that runs
// a commit pipeline — the file volume, on every barrier. The in-memory
// volume does not implement GroupSyncer, which is how mem-backend traces
// carry no pipeline events.
type SyncStats struct {
	// Barriers counts Sync calls that entered the pipeline.
	Barriers int64
	// Batches counts device-flush passes: each acknowledged one or more
	// barriers. Barriers/Batches is the amortization factor.
	Batches int64
	// Fsyncs counts individual file flushes issued (one per dirty area
	// per batch).
	Fsyncs int64
	// MaxBatch is the largest number of barriers one batch acknowledged.
	MaxBatch int64
}

// Sub returns the counter deltas since an earlier snapshot. MaxBatch is a
// high-water mark, not a counter, and is carried over unchanged.
func (s SyncStats) Sub(prev SyncStats) SyncStats {
	return SyncStats{
		Barriers: s.Barriers - prev.Barriers,
		Batches:  s.Batches - prev.Batches,
		Fsyncs:   s.Fsyncs - prev.Fsyncs,
		MaxBatch: s.MaxBatch,
	}
}

// GroupSyncer is the optional Volume extension exposing commit-pipeline
// counters. The Disk decorator type-asserts for it after every Barrier and
// turns non-zero deltas into vol.groupcommit / vol.fsync events.
type GroupSyncer interface {
	SyncStats() SyncStats
}
