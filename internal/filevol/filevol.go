// Package filevol implements a durable, file-backed disk.Volume: one file
// per database area, page-granular pread/pwrite, and a configurable sync
// policy. It is the real-I/O counterpart of the in-memory simulation
// backend — the cost model, stats and tracing all stay in the disk
// decorator above, which treats both backends identically.
//
// Durability model. Sync is the commit barrier of the shadow protocol: the
// storage layer calls it immediately before a commit-point write (tree
// root / descriptor) and again after it, so on policy "commit" the on-disk
// file always holds a consistent pre- or post-operation version of every
// object and the reachability recovery in the root package makes a reopened
// database crash-consistent. Policy "always" fsyncs after every write;
// policy "never" trades crash consistency for speed and only syncs on
// Close.
//
// Dense files. Every byte below an area file's end has been written: a
// write starting past the end first zero-fills the gap, so a durable write
// is an overwrite or an append, never a block allocation inside the file
// that the next barrier's fdatasync would have to commit too.
//
// Crash testing. With the crash log enabled the volume records the
// pre-image of every page written since the last completed barrier, and an
// armed power cut (FailAtBarrier) fires at a chosen barrier: all un-synced
// writes are rolled back — exactly what a kernel that never flushed its
// page cache would leave behind — and the volume goes dead, failing every
// later operation with ErrPowerCut.
//
// Fail-stop. The first failed device flush poisons the volume: that
// barrier and every later operation return ErrVolumeFailed. A failed
// fsync must never be retried — on Linux the kernel may already have
// dropped the dirty pages and marked them clean, so the retry "succeeds"
// over lost writes — and only a reopen, which re-reads what the device
// really holds and runs recovery, may trust the files again.
//
// Concurrency. A Volume is safe for concurrent use: one mutex covers its
// bookkeeping and the page-run pread/pwrite calls, View only lends slices
// of a read-only mapping that its callers read outside it, and every
// barrier runs the commit pipeline of groupcommit.go, which drops that
// mutex for the device flush. The package starts no goroutine; it is
// exempt from the determinism analyzer only because it uses sync.
package filevol

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lobstore/internal/disk"
)

// Policy selects when writes are forced to stable storage.
type Policy int

const (
	// SyncCommit fsyncs at sync barriers (the shadow-commit points) only —
	// the default: crash-consistent with one fsync per barrier.
	SyncCommit Policy = iota
	// SyncAlways fsyncs after every write call; barriers are then no-ops.
	SyncAlways
	// SyncNever fsyncs only on Close. A crash may lose or tear recent
	// operations; reopen-time recovery still restores some consistent
	// earlier state of whatever the kernel happened to flush.
	SyncNever
)

func (p Policy) String() string {
	switch p {
	case SyncCommit:
		return "commit"
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy maps the -sync flag spellings to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "commit", "":
		return SyncCommit, nil
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("filevol: unknown sync policy %q (always, commit, never)", s)
}

// ErrPowerCut is the terminal error of an injected power cut: returned by
// the barrier that fired it and by every operation after it.
var ErrPowerCut = errors.New("filevol: simulated power cut")

// ErrVolumeFailed is the terminal error of a failed device flush:
// returned, wrapping the cause, by the barrier that hit it — every member
// of its commit group — and by every operation after it. Reopening the
// volume recovers.
var ErrVolumeFailed = errors.New("filevol: volume failed")

// ErrReadOnly is returned by writes on a volume opened read-only.
var ErrReadOnly = errors.New("filevol: volume is read-only")

var _ disk.Volume = (*Volume)(nil)
var _ disk.GroupSyncer = (*Volume)(nil)

// Volume is a file-backed disk.Volume, safe for concurrent use.
type Volume struct {
	dir      string
	pageSize int
	policy   Policy
	readOnly bool
	gc       GroupCommit

	// flushHook, when set, runs before each flush's fdatasyncs (for a
	// barrier's flush, outside mu); its error stands in for the device's.
	// Testing aid.
	flushHook func() error

	// mu guards everything below. It covers bookkeeping and the page-run
	// pread/pwrite calls, never the reading of a view or a barrier's
	// device flush.
	mu    sync.Mutex
	areas []*areaFile

	// fault is nil while the volume is healthy; ErrPowerCut after an
	// injected cut, a wrapped ErrVolumeFailed after a failed flush. Once
	// set it is returned by every operation.
	fault error

	cur      *commitGroup // forming group; nil when none
	flushing bool         // a barrier's flush is in flight with mu dropped
	turn     sync.Cond    // on mu; broadcast when flushing falls
	stats    disk.SyncStats

	// crash-injection state (nil / disabled in production use)
	log    *crashLog
	failAt int64 // barrier number that power-cuts; 0 = disarmed
}

type areaFile struct {
	f      *os.File
	npages int
	dirty  bool // written since the last fsync
	// size caches the backing file's length so writes and views never
	// stat the file. It is set from the one Stat in AddArea and maintained
	// by WriteRun and the crash log's rollback truncate.
	size int64
	// m is the area's read-only shared mapping over its full capacity,
	// made by the first View and unmapped by Close (mmap_unix.go).
	m []byte
}

// Option configures a Volume.
type Option func(*Volume)

// WithPolicy selects the sync policy (default SyncCommit).
func WithPolicy(p Policy) Option {
	return func(v *Volume) { v.policy = p }
}

// WithCrashLog enables pre-image logging so a power cut can be injected
// with FailAtBarrier. Testing aid: every write pays one extra pread.
func WithCrashLog() Option {
	return func(v *Volume) { v.log = newCrashLog() }
}

// WithFlushHook runs fn before the fdatasyncs of every flush — outside the
// volume mutex for a barrier's flush — and treats a non-nil result as
// the device's failure. Testing aid: a blocking fn holds a flush open, a
// failing one injects an fsync error.
func WithFlushHook(fn func() error) Option {
	return func(v *Volume) { v.flushHook = fn }
}

// WithSyncDelay injects artificial latency into every flush. Testing aid:
// it widens the window in which concurrent barriers pile into one group.
func WithSyncDelay(d time.Duration) Option {
	return WithFlushHook(func() error {
		time.Sleep(d)
		return nil
	})
}

// ReadOnly opens the area files read-only and fails every write. Used by
// fsck so a diagnostic scan cannot mutate the store.
func ReadOnly() Option {
	return func(v *Volume) { v.readOnly = true }
}

// Open creates (or attaches to) a file-backed volume rooted at dir. Area
// files are created lazily by AddArea.
func Open(dir string, pageSize int, opts ...Option) (*Volume, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("filevol: page size %d must be positive", pageSize)
	}
	v := &Volume{dir: dir, pageSize: pageSize}
	v.turn.L = &v.mu
	for _, o := range opts {
		o(v)
	}
	if !v.readOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("filevol: creating %s: %w", dir, err)
		}
	}
	return v, nil
}

// Dir returns the directory holding the area files.
func (v *Volume) Dir() string { return v.dir }

// Policy returns the volume's sync policy.
func (v *Volume) Policy() Policy { return v.policy }

// areaPath names the backing file of one area.
func (v *Volume) areaPath(id int) string {
	return filepath.Join(v.dir, fmt.Sprintf("area-%d.lob", id))
}

// PageSize returns the page size in bytes.
func (v *Volume) PageSize() int { return v.pageSize }

// AddArea opens the next area's backing file, creating it when absent.
// Areas must be added in the same fixed order on every opening, so the
// file names are stable.
func (v *Volume) AddArea(npages int) (disk.AreaID, error) {
	if npages <= 0 {
		return 0, fmt.Errorf("filevol: area size %d must be positive", npages)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.areas) >= 255 {
		return 0, fmt.Errorf("filevol: too many areas")
	}
	id := len(v.areas)
	flags := os.O_RDWR | os.O_CREATE
	if v.readOnly {
		flags = os.O_RDONLY
	}
	f, err := os.OpenFile(v.areaPath(id), flags, 0o644)
	if err != nil {
		return 0, fmt.Errorf("filevol: area %d: %w", id, err)
	}
	st, err := f.Stat()
	if err != nil {
		cerr := f.Close()
		return 0, errors.Join(fmt.Errorf("filevol: area %d: %w", id, err), cerr)
	}
	if max := int64(npages) * int64(v.pageSize); st.Size() > max {
		cerr := f.Close()
		return 0, errors.Join(
			fmt.Errorf("filevol: area %d holds %d bytes, geometry allows %d", id, st.Size(), max), cerr)
	}
	v.areas = append(v.areas, &areaFile{f: f, npages: npages, size: st.Size()})
	return disk.AreaID(id), nil
}

// AreaPages returns the capacity of area id in pages.
func (v *Volume) AreaPages(id disk.AreaID) (int, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	a, err := v.area(id)
	if err != nil {
		return 0, err
	}
	return a.npages, nil
}

// area looks up one area. v.mu held.
func (v *Volume) area(id disk.AreaID) (*areaFile, error) {
	if int(id) >= len(v.areas) {
		return nil, fmt.Errorf("filevol: unknown area %d", id)
	}
	return v.areas[id], nil
}

// ReadRun preads npages adjacent pages into dst; the range past the file's
// current end reads as zeros (pages never written hold no bytes yet).
func (v *Volume) ReadRun(addr disk.Addr, npages int, dst []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.fault != nil {
		return v.fault
	}
	a, err := v.area(addr.Area)
	if err != nil {
		return err
	}
	n := npages * v.pageSize
	off := int64(addr.Page) * int64(v.pageSize)
	m, err := a.f.ReadAt(dst[:n], off)
	if err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("filevol: read %v: %w", addr, err)
	}
	clear(dst[m:n])
	return nil
}

// View lends the byte range from the area's read-only shared mapping,
// which sees every pwrite through the one page cache. Under the mutex it
// checks the range against the area and against the file's size, and
// lends the bytes past the file's end from the shared zero block: a load
// from the mapping past the end of the file would fault (SIGBUS). The only
// thing that shrinks a file is an injected power cut's rollback, which
// fails every View after it and truncates bytes written since the last
// device flush. Under policies commit and always those are never
// committed bytes a pin covers; under policy never, which declines
// durability, they can be, so a view must not be read across a cut there.
// A view stays readable until Close, which its caller must not run while
// it holds one.
func (v *Volume) View(addr disk.Addr, off, n int64, dst [][]byte) ([][]byte, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.fault != nil {
		return dst, v.fault
	}
	a, err := v.area(addr.Area)
	if err != nil {
		return dst, err
	}
	start := int64(addr.Page)*int64(v.pageSize) + off
	end := start + n
	if off < 0 || n < 0 || end > int64(a.npages)*int64(v.pageSize) {
		return dst, fmt.Errorf("filevol: bytes [%v+%d,+%d) outside area %d", addr, off, n, addr.Area)
	}
	if start < a.size {
		m := min(end, a.size)
		b, err := a.lend(start, m, v.pageSize)
		if err != nil {
			return dst, fmt.Errorf("filevol: view %v+%d: %w", addr, off, err)
		}
		dst = append(dst, b)
		start = m
	}
	return disk.AppendZeros(dst, end-start), nil
}

// WriteRun pwrites npages adjacent pages from src. A run that starts past
// the file's end first has the gap zero-filled (fillZeros), so the file
// never holds a hole below its end. Under SyncAlways the write is forced
// to stable storage before returning. A write landing while another
// caller's barrier flush is in flight re-dirties its area and is covered
// by the next flush, not that one.
func (v *Volume) WriteRun(addr disk.Addr, npages int, src []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.fault != nil {
		return v.fault
	}
	if v.readOnly {
		return ErrReadOnly
	}
	a, err := v.area(addr.Area)
	if err != nil {
		return err
	}
	n := npages * v.pageSize
	off := int64(addr.Page) * int64(v.pageSize)
	if err := v.fillZeros(addr.Area, a, off); err != nil {
		return err
	}
	if v.log != nil {
		if err := v.log.beforeWrite(addr.Area, a, off, n, v.pageSize); err != nil {
			return err
		}
	}
	if _, err := a.f.WriteAt(src[:n], off); err != nil {
		return fmt.Errorf("filevol: write %v: %w", addr, err)
	}
	if end := off + int64(n); end > a.size {
		a.size = end
	}
	if v.policy == SyncAlways {
		if err := fdatasync(a.f); err != nil {
			return v.fail(fmt.Errorf("filevol: sync after write %v: %w", addr, err))
		}
		if v.log != nil {
			v.log.clear()
		}
		return nil
	}
	a.dirty = true
	return nil
}

// zeroBlock is the shared zero block disk.AppendZeros lends.
var zeroBlock = disk.AppendZeros(nil, 1<<20)[0]

// fillZeros writes zeros over [a.size, off), the gap a write starting at
// off would leave as a sparse hole (see the package doc). It is logged
// like any write, so a power cut rolls it back with the file's size.
// v.mu held.
func (v *Volume) fillZeros(id disk.AreaID, a *areaFile, off int64) error {
	if off <= a.size {
		return nil
	}
	if v.log != nil {
		if err := v.log.beforeWrite(id, a, a.size, int(off-a.size), v.pageSize); err != nil {
			return err
		}
	}
	for p := a.size; p < off; {
		z := zeroBlock[:min(off-p, int64(len(zeroBlock)))]
		if _, err := a.f.WriteAt(z, p); err != nil {
			return fmt.Errorf("filevol: zero-fill area %d at %d: %w", id, p, err)
		}
		p += int64(len(z))
	}
	a.size = off
	return nil
}

// A flush is three steps — sealDirty, syncFiles, flushDone — so that a
// barrier can run the middle one, the only slow one, with the mutex
// dropped. syncDirty is the three back to back under the mutex, for the
// clean-shutdown flushes.

// sealDirty snapshots and clears the dirty-area set and seals the crash
// log's generation: what was written up to here is the coming flush's to
// make durable, anything later re-dirties its area for the next one.
func (v *Volume) sealDirty() []*os.File {
	var files []*os.File
	for _, a := range v.areas {
		if a.dirty {
			files = append(files, a.f)
			a.dirty = false
		}
	}
	if v.log != nil {
		v.log.seal()
	}
	return files
}

// syncFiles issues the device flushes (fdatasync) for a sealed snapshot
// and reports how many it issued. It reads no volume state but the hook.
func (v *Volume) syncFiles(files []*os.File) (int, error) {
	if v.flushHook != nil {
		if err := v.flushHook(); err != nil {
			return 0, err
		}
	}
	for i, f := range files {
		if err := fdatasync(f); err != nil {
			return i, fmt.Errorf("filevol: sync %s: %w", filepath.Base(f.Name()), err)
		}
	}
	return len(files), nil
}

// flushDone publishes a flush's outcome: success drops the pre-images the
// flush covered; failure is fail-stop.
func (v *Volume) flushDone(err error) error {
	if err != nil {
		return v.fail(err)
	}
	if v.log != nil {
		v.log.flushed()
	}
	return nil
}

func (v *Volume) syncDirty() (int, error) {
	n, err := v.syncFiles(v.sealDirty())
	return n, v.flushDone(err)
}

// fail poisons the volume with its first flush failure and returns the
// terminal error.
func (v *Volume) fail(err error) error {
	if v.fault == nil {
		v.fault = fmt.Errorf("%w: %w", ErrVolumeFailed, err)
	}
	return v.fault
}

// SyncAll forces everything to stable storage regardless of policy: the
// clean-shutdown flush used by Close and checkpoints.
func (v *Volume) SyncAll() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.awaitTurn()
	if v.fault != nil {
		return v.fault
	}
	_, err := v.syncDirty()
	return err
}

// Close flushes (policy-independently, unless the volume is faulted or
// read-only) and closes every area file.
func (v *Volume) Close() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.awaitTurn()
	var errs []error
	if v.fault == nil && !v.readOnly {
		_, err := v.syncDirty()
		errs = append(errs, err)
	}
	for id, a := range v.areas {
		if err := a.unmap(); err != nil {
			errs = append(errs, fmt.Errorf("filevol: unmap area %d: %w", id, err))
		}
		if a.f == nil {
			continue
		}
		if err := a.f.Close(); err != nil {
			errs = append(errs, fmt.Errorf("filevol: close area %d: %w", id, err))
		}
		a.f = nil
	}
	return errors.Join(errs...)
}

// Barriers returns the number of Sync calls so far. The crash matrix uses
// it to enumerate an operation's barrier points.
func (v *Volume) Barriers() int64 { return v.SyncStats().Barriers }

// SyncStats returns the commit pipeline's cumulative durability counters.
// They move on every barrier, so a traced file-backed run always carries
// vol.groupcommit / vol.fsync events (batches of one without group
// commit); only the in-memory backend, which has no SyncStats, emits none.
func (v *Volume) SyncStats() disk.SyncStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.stats
}

// FailAtBarrier arms a power cut at the n-th Sync call from now (n ≥ 1):
// that barrier rolls back all un-synced writes and returns ErrPowerCut, as
// does every operation afterwards. Requires the crash log. n ≤ 0 disarms.
// A cut landing on any member of a commit group dooms the whole group: the
// cut falls between the group's data writes and its shared fsync, so no
// member is acknowledged.
func (v *Volume) FailAtBarrier(n int64) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.log == nil {
		return fmt.Errorf("filevol: power-cut injection needs WithCrashLog")
	}
	if n <= 0 {
		v.failAt = 0
		return nil
	}
	v.failAt = v.stats.Barriers + n
	return nil
}

// powerCut rolls back every un-synced write and marks the volume dead.
// v.mu held and no flush in flight.
func (v *Volume) powerCut() error {
	if err := v.log.rollback(v); err != nil {
		return fmt.Errorf("filevol: power cut rollback: %w", err)
	}
	v.fault = ErrPowerCut
	return ErrPowerCut
}
