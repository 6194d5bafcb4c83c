package lobstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"lobstore/internal/buddy"
	"lobstore/internal/catalog"
	"lobstore/internal/disk"
	"lobstore/internal/filevol"
	"lobstore/internal/store"
)

// Superblock format: the file-backed database's self-description, written
// once at creation so a reopening process can reconstruct the store
// parameters without out-of-band configuration.
//
//	magic(4) version(2) pad(2)
//	pageSize(4) seekNs(8) transferNs(8)
//	bufferPages(4) maxRun(4)
//	leafAreaPages(8) metaAreaPages(8) maxSegmentPages(4) pad(4)
const (
	superName    = "super.lob"
	superMagic   = 0x4C4F4256 // "LOBV"
	superVersion = 1
	superLen     = 56
)

func encodeSuper(cfg Config) []byte {
	buf := make([]byte, superLen)
	binary.LittleEndian.PutUint32(buf[0:], superMagic)
	binary.LittleEndian.PutUint16(buf[4:], superVersion)
	binary.LittleEndian.PutUint32(buf[8:], uint32(cfg.PageSize))
	binary.LittleEndian.PutUint64(buf[12:], uint64(cfg.SeekTime.Nanoseconds()))
	binary.LittleEndian.PutUint64(buf[20:], uint64(cfg.TransferPerKB.Nanoseconds()))
	binary.LittleEndian.PutUint32(buf[28:], uint32(cfg.BufferPages))
	binary.LittleEndian.PutUint32(buf[32:], uint32(cfg.MaxBufferedRun))
	binary.LittleEndian.PutUint64(buf[36:], uint64(cfg.LeafAreaPages))
	binary.LittleEndian.PutUint64(buf[44:], uint64(cfg.MetaAreaPages))
	binary.LittleEndian.PutUint32(buf[52:], uint32(cfg.MaxSegmentPages))
	return buf
}

func decodeSuper(buf []byte) (Config, error) {
	var cfg Config
	if len(buf) < superLen || binary.LittleEndian.Uint32(buf[0:]) != superMagic {
		return cfg, fmt.Errorf("lobstore: not a database superblock")
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != superVersion {
		return cfg, fmt.Errorf("lobstore: superblock version %d unsupported", v)
	}
	cfg.PageSize = int(binary.LittleEndian.Uint32(buf[8:]))
	cfg.SeekTime = time.Duration(binary.LittleEndian.Uint64(buf[12:]))
	cfg.TransferPerKB = time.Duration(binary.LittleEndian.Uint64(buf[20:]))
	cfg.BufferPages = int(binary.LittleEndian.Uint32(buf[28:]))
	cfg.MaxBufferedRun = int(binary.LittleEndian.Uint32(buf[32:]))
	cfg.LeafAreaPages = int(binary.LittleEndian.Uint64(buf[36:]))
	cfg.MetaAreaPages = int(binary.LittleEndian.Uint64(buf[44:]))
	cfg.MaxSegmentPages = int(binary.LittleEndian.Uint32(buf[52:]))
	cfg.Materialize = true
	cfg.Backend = "file"
	return cfg, nil
}

// writeSuper durably creates the superblock: written to a temp file,
// fsynced, renamed into place, directory fsynced. Its presence marks a
// fully initialized database, so a crash during creation leaves a
// directory that Open refuses rather than a half-built store it would
// silently trust.
func writeSuper(dir string, cfg Config) error {
	f, err := os.CreateTemp(dir, superName+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(e error) error {
		return errors.Join(e, f.Close(), os.Remove(tmp))
	}
	if _, err := f.Write(encodeSuper(cfg)); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		return errors.Join(err, os.Remove(tmp))
	}
	if err := os.Rename(tmp, filepath.Join(dir, superName)); err != nil {
		return errors.Join(err, os.Remove(tmp))
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		return errors.Join(err, d.Close())
	}
	return d.Close()
}

func readSuper(dir string) (Config, error) {
	buf, err := os.ReadFile(filepath.Join(dir, superName))
	if err != nil {
		return Config{}, err
	}
	return decodeSuper(buf)
}

// openFile creates or reopens a durable file-backed database under
// cfg.Dir. A directory with a superblock is an existing database and is
// reopened (its recorded geometry wins over the caller's cfg; Dir,
// SyncPolicy, CrashInjection, GroupCommit and Concurrent still come from
// the caller); otherwise a fresh database is created.
func openFile(cfg Config) (*DB, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("lobstore: file backend needs Config.Dir")
	}
	if !cfg.Materialize {
		return nil, fmt.Errorf("lobstore: file backend always materializes")
	}
	policy, err := filevol.ParsePolicy(cfg.SyncPolicy)
	if err != nil {
		return nil, err
	}
	super, err := readSuper(cfg.Dir)
	fresh := errors.Is(err, os.ErrNotExist)
	if err != nil && !fresh {
		return nil, err
	}
	if !fresh {
		super.Dir, super.SyncPolicy, super.CrashInjection = cfg.Dir, cfg.SyncPolicy, cfg.CrashInjection
		super.GroupCommit = cfg.GroupCommit
		super.Concurrent = cfg.Concurrent
		cfg = super
	}

	opts := []filevol.Option{
		filevol.WithPolicy(policy),
		filevol.WithGroupCommit(filevol.GroupCommit(cfg.GroupCommit)),
	}
	if cfg.CrashInjection {
		opts = append(opts, filevol.WithCrashLog())
	}
	vol, err := filevol.Open(cfg.Dir, cfg.PageSize, opts...)
	if err != nil {
		return nil, err
	}
	params := storeParams(cfg)
	params.Volume = vol
	st, err := store.Open(params)
	if err != nil {
		return nil, errors.Join(err, vol.Close())
	}

	var cat *catalog.Catalog
	if fresh {
		cat, err = catalog.New(st)
		if err == nil && cat.Root() != catalogAddr() {
			err = fmt.Errorf("lobstore: catalog landed at %v, expected %v", cat.Root(), catalogAddr())
		}
		if err == nil {
			// Everything the fresh database is made of — catalog page, space
			// directories — must be durable before the superblock declares
			// the directory a valid store.
			err = commitDurableState(st)
		}
		if err == nil {
			err = writeSuper(cfg.Dir, cfg)
		}
	} else {
		cat, err = catalog.Open(st, catalogAddr())
		if err == nil {
			// Reopen-time recovery: the on-disk space directories may be
			// stale (the previous process may have died mid-operation), so
			// allocation state is rebuilt from reachability and written
			// back, exactly like recovering from a mid-run crash.
			err = recoverAllocators(st, cat)
		}
		if err == nil {
			err = commitDurableState(st)
		}
	}
	if err != nil {
		return nil, errors.Join(err, st.Disk.Close())
	}
	db := &DB{st: st, cfg: cfg, cat: cat, vol: vol}
	if cfg.Concurrent {
		db.enableEngine()
	}
	return db, nil
}

// commitDurableState flushes everything held in memory (pool, space
// directories) and barriers, so the on-disk files are self-contained.
func commitDurableState(st *store.Store) error {
	if err := st.Flush(); err != nil {
		return err
	}
	return st.SyncBarrier()
}

// Close flushes all in-memory state — dirty buffer pool pages and space
// directories — forces it to stable storage, and releases the underlying
// volume. On a file-backed database a clean Close makes reopening skip no
// work (recovery still runs, and finds nothing to repair); on the memory
// backend it is cheap and optional. The database is unusable afterwards.
func (db *DB) Close() error {
	if db.eng != nil {
		// Quiesce the engine first: it refuses while snapshots are open,
		// and uninstalls its store hooks so the final flush below runs
		// single-threaded.
		if err := db.eng.Close(); err != nil {
			return err
		}
		db.eng = nil
	}
	return db.st.Close()
}

// Checkpoint flushes all in-memory state to the volume and barriers,
// without closing. After a checkpoint the on-disk files are a complete
// snapshot; a following power cut loses nothing committed so far.
func (db *DB) Checkpoint() error {
	return db.run(func() error { return commitDurableState(db.st) })
}

// InjectPowerCut arms a simulated power cut at the n-th sync barrier from
// now (n ≥ 1) on a file-backed database opened with CrashInjection: that
// barrier drops every write since the previous barrier — as a kernel that
// never flushed its page cache would — and the volume goes dead, failing
// all further I/O with filevol.ErrPowerCut. Reopen the directory with Open
// to run recovery. n ≤ 0 disarms.
func (db *DB) InjectPowerCut(n int64) error {
	if db.vol == nil {
		return fmt.Errorf("lobstore: power-cut injection needs the file backend")
	}
	return db.vol.FailAtBarrier(n)
}

// SyncBarriers reports how many durability barriers the file-backed volume
// has executed. The crash matrix uses the delta across an operation to
// enumerate its power-cut points.
func (db *DB) SyncBarriers() (int64, error) {
	if db.vol == nil {
		return 0, fmt.Errorf("lobstore: no file-backed volume")
	}
	return db.vol.Barriers(), nil
}

// FsckReport is the result of a consistency check of a file-backed
// database directory.
type FsckReport struct {
	// Config is the geometry recorded in the directory's superblock.
	Config Config
	// Objects is the number of cataloged entries scanned.
	Objects int
	// Listing describes every cataloged entry, in catalog order.
	Listing []ObjectReport
	// DataPages and MetaPages are the pages the on-disk space directories
	// record as handed out in the data and metadata areas.
	DataPages, MetaPages int64
	// ReachablePages counts pages owned by the catalog or some object.
	ReachablePages int64
	// AllocatedPages counts pages the on-disk space directories record as
	// handed out.
	AllocatedPages int64
	// Leaked lists allocated-but-unreachable ranges: space the directories
	// believe is in use that no object owns. A crashed-then-recovered
	// store has none (recovery rewrites the directories from
	// reachability); a store killed mid-operation and never reopened may
	// legitimately show the interrupted operation's orphans.
	Leaked []PageRange
	// DoublyOwned lists pages claimed by two different owners — real
	// corruption under segment-granularity shadowing, where every page has
	// exactly one owner.
	DoublyOwned []OwnershipConflict
}

// ObjectReport is one cataloged entry as fsck found it. A record file
// (Engine "records") carries only its name.
type ObjectReport struct {
	ObjectInfo
	Size        int64
	Utilization Utilization
	Layout      Layout
}

// PageRange is a run of pages within one database area.
type PageRange struct {
	Area  uint8
	Page  uint32
	Pages int
}

func (r PageRange) String() string {
	return fmt.Sprintf("%d:%d+%d", r.Area, r.Page, r.Pages)
}

// OwnershipConflict is one page claimed by two owners.
type OwnershipConflict struct {
	Area   uint8
	Page   uint32
	Owners [2]string
}

func (c OwnershipConflict) String() string {
	return fmt.Sprintf("%d:%d owned by %q and %q", c.Area, c.Page, c.Owners[0], c.Owners[1])
}

// Clean reports whether the check found no inconsistencies.
func (r FsckReport) Clean() bool { return len(r.Leaked) == 0 && len(r.DoublyOwned) == 0 }

// Fsck checks a file-backed database directory read-only: it loads the
// on-disk space directories as written, walks every object reachable from
// the catalog, and cross-checks the two views; the report also lists what
// the walk found (`lobctl fsck -v` prints it). Nothing is modified — the
// area files are opened read-only — so it is safe on a directory whose
// owning process crashed.
func Fsck(dir string) (_ *FsckReport, err error) {
	cfg, err := readSuper(dir)
	if err != nil {
		return nil, err
	}
	vol, err := filevol.Open(dir, cfg.PageSize, filevol.ReadOnly())
	if err != nil {
		return nil, err
	}
	params := storeParams(cfg)
	params.Volume = vol
	st, err := store.Open(params)
	if err != nil {
		return nil, errors.Join(err, vol.Close())
	}
	defer func() {
		// Read-only: nothing to flush, just release the files.
		if cerr := st.Disk.Close(); err == nil {
			err = cerr
		}
	}()
	// The allocators' view: the directories exactly as recorded on disk.
	if err := st.LoadAllocators(); err != nil {
		return nil, err
	}
	cat, err := catalog.Open(st, catalogAddr())
	if err != nil {
		return nil, fmt.Errorf("lobstore: fsck: %w", err)
	}

	rep := &FsckReport{Config: cfg, DataPages: st.Leaf.UsedBlocks(), MetaPages: st.Meta.UsedBlocks()}
	owners := make(map[disk.Addr]string)
	err = scanReachable(st, cat, func(owner string, a disk.Addr, pages int) error {
		for i := 0; i < pages; i++ {
			p := a.Add(i)
			if prev, ok := owners[p]; ok {
				if prev != owner {
					rep.DoublyOwned = append(rep.DoublyOwned, OwnershipConflict{
						Area:   uint8(p.Area),
						Page:   uint32(p.Page),
						Owners: [2]string{prev, owner},
					})
				}
				continue
			}
			owners[p] = owner
			rep.ReachablePages++
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lobstore: fsck: %w", err)
	}
	entries, err := cat.List()
	if err != nil {
		return nil, err
	}
	rep.Objects = len(entries)
	for _, e := range entries {
		o := ObjectReport{ObjectInfo: ObjectInfo{Name: e.Name, Engine: e.Kind.String()}}
		if e.Kind != catalog.KindRecord {
			m, err := openManaged(st, e.Kind, e.Root)
			if err != nil {
				return nil, fmt.Errorf("lobstore: fsck: object %q: %w", e.Name, err)
			}
			o.Size, o.Utilization = m.Size(), m.Utilization()
			if o.Layout, err = Inspect(m); err != nil {
				return nil, fmt.Errorf("lobstore: fsck: object %q: %w", e.Name, err)
			}
		}
		rep.Listing = append(rep.Listing, o)
	}

	allocated := append(st.Meta.AllocatedRanges(), st.Leaf.AllocatedRanges()...)
	collectLeaks(rep, allocated, owners)
	sortFindings(rep)
	return rep, nil
}

// collectLeaks walks the allocated ranges and records every maximal
// sub-run not covered by the reachable owner map.
func collectLeaks(rep *FsckReport, allocated []buddy.Range, owners map[disk.Addr]string) {
	for _, r := range allocated {
		rep.AllocatedPages += int64(r.Pages)
		leakStart := -1
		for i := 0; i <= r.Pages; i++ {
			leaked := false
			if i < r.Pages {
				_, reachable := owners[r.Addr.Add(i)]
				leaked = !reachable
			}
			if leaked && leakStart < 0 {
				leakStart = i
			}
			if !leaked && leakStart >= 0 {
				rep.Leaked = append(rep.Leaked, PageRange{
					Area:  uint8(r.Addr.Area),
					Page:  uint32(r.Addr.Add(leakStart).Page),
					Pages: i - leakStart,
				})
				leakStart = -1
			}
		}
	}
}

// sortFindings orders the report deterministically by address.
func sortFindings(rep *FsckReport) {
	sort.Slice(rep.Leaked, func(i, j int) bool {
		a, b := rep.Leaked[i], rep.Leaked[j]
		if a.Area != b.Area {
			return a.Area < b.Area
		}
		return a.Page < b.Page
	})
	sort.Slice(rep.DoublyOwned, func(i, j int) bool {
		a, b := rep.DoublyOwned[i], rep.DoublyOwned[j]
		if a.Area != b.Area {
			return a.Area < b.Area
		}
		return a.Page < b.Page
	})
}
