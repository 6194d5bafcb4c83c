package lobstore

import (
	"fmt"

	"lobstore/internal/buddy"
	"lobstore/internal/catalog"
	"lobstore/internal/disk"
	"lobstore/internal/record"
	"lobstore/internal/store"
)

// scanReachable enumerates every page reachable from the catalog root set:
// the catalog chain itself, every cataloged object, and every long field
// referenced from a record file. Each range is reported with the name of
// its owner, so callers can rebuild allocation state (recovery, where the
// owner is irrelevant) or cross-check ownership (fsck, where a page with
// two owners is corruption).
//
// This is the heart of shadow-paging recovery (§3.3): the on-disk space
// directories may be stale after a crash, but the reachable set — and
// nothing else — is live.
func scanReachable(st *store.Store, cat *catalog.Catalog,
	mark func(owner string, addr disk.Addr, pages int) error) error {

	markFor := func(owner string) func(a disk.Addr, pages int) error {
		return func(a disk.Addr, pages int) error { return mark(owner, a, pages) }
	}
	if err := cat.MarkPages(markFor("catalog")); err != nil {
		return fmt.Errorf("catalog pages: %w", err)
	}
	entries, err := cat.List()
	if err != nil {
		return err
	}
	markObject := func(owner string, kind catalog.Kind, root disk.Addr) error {
		m, err := openManaged(st, kind, root)
		if err != nil {
			return err
		}
		return m.MarkPages(markFor(owner))
	}
	for _, e := range entries {
		switch e.Kind {
		case catalog.KindRecord:
			f, err := record.OpenFile(st, e.Root)
			if err != nil {
				return fmt.Errorf("record file %q: %w", e.Name, err)
			}
			if err := f.MarkPages(markFor(e.Name)); err != nil {
				return err
			}
			refs, err := f.LongRefs()
			if err != nil {
				return err
			}
			for _, ref := range refs {
				owner := fmt.Sprintf("%s@%v", e.Name, ref.Root)
				if err := markObject(owner, ref.Kind, ref.Root); err != nil {
					return fmt.Errorf("long field of %q: %w", e.Name, err)
				}
			}
		default:
			if err := markObject(e.Name, e.Kind, e.Root); err != nil {
				return fmt.Errorf("object %q: %w", e.Name, err)
			}
		}
	}
	return nil
}

// recoverAllocators runs the reachability scan and rebuilds both buddy
// allocators as exactly the reachable set. Orphaned pages of an
// interrupted operation become free implicitly.
func recoverAllocators(st *store.Store, cat *catalog.Catalog) error {
	var metaRanges, leafRanges []buddy.Range
	err := scanReachable(st, cat, func(_ string, a disk.Addr, pages int) error {
		r := buddy.Range{Addr: a, Pages: pages}
		if a.Area == st.LeafArea() {
			leafRanges = append(leafRanges, r)
		} else {
			metaRanges = append(metaRanges, r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return st.RebuildAllocators(metaRanges, leafRanges)
}

// Crash simulates a system failure followed by shadow-paging recovery and
// returns a fresh handle on the recovered database.
//
// The failure model is §3.3's: every write that completed reached the
// simulated disk, but everything held only in memory — dirty buffer pool
// pages, cached space directories, deferred frees — is lost, and any
// operation in flight is abandoned. Because updates shadow old pages and
// defer their frees past the commit point (the tree root or descriptor
// write), the on-disk state always contains a complete, consistent version
// of every object: the post-operation version if the commit was written,
// the pre-operation version otherwise.
//
// Recovery rebuilds allocation state from reachability: the catalog is the
// root set; every cataloged object (and every long field referenced from a
// record file) enumerates the pages it owns, and the buddy allocators are
// reconstructed as exactly that set. Orphaned pages from the interrupted
// operation become free automatically.
//
// Handles from before the crash — including obj — must not be used again.
//
// Crash is the single-threaded paper profile's tool: a Concurrent database
// is refused with an error wrapping ErrConfig, because the copy would share
// the simulated disk — and the engine's hooks on it — with the original
// while carrying no engine of its own. Test a durable store's recovery with
// InjectPowerCut and a reopen instead.
func (db *DB) Crash() (*DB, error) {
	if db.cfg.Concurrent {
		return nil, fmt.Errorf("lobstore: %w: Crash needs a database opened without Concurrent", ErrConfig)
	}
	st, err := db.st.CrashCopy()
	if err != nil {
		return nil, err
	}
	cat, err := catalog.Open(st, catalogAddr())
	if err != nil {
		return nil, fmt.Errorf("lobstore: recovery: %w", err)
	}
	if err := recoverAllocators(st, cat); err != nil {
		return nil, fmt.Errorf("lobstore: recovery: %w", err)
	}
	return &DB{st: st, cfg: db.cfg, cat: cat}, nil
}
