package store

import (
	"fmt"

	"lobstore/internal/buddy"
	"lobstore/internal/buffer"
	"lobstore/internal/disk"
)

// MetaArea returns the metadata area id (index pages, roots, catalogs).
func (s *Store) MetaArea() disk.AreaID { return disk.AreaID(0) }

// LeafArea returns the data area id (large object bytes).
func (s *Store) LeafArea() disk.AreaID { return s.leafArea }

// metaOrder caps the metadata allocator's space order: metadata
// allocations are single pages, and a smaller order keeps the meta area
// compact.
func metaOrder(maxOrder uint) buddy.Option {
	return buddy.WithMaxOrder(min(maxOrder, 10))
}

// CrashCopy returns a new Store over the same simulated disk with a cold
// buffer pool and empty allocation state — the situation after a system
// failure: everything the old instance held only in memory (dirty pool
// pages, cached space directories, deferred frees) is gone. The caller
// must rebuild allocation state with RebuildAllocators before allocating.
func (s *Store) CrashCopy() (*Store, error) {
	pool, err := buffer.New(s.Disk, buffer.Config{Frames: s.Pool.Frames(), MaxRun: s.Pool.MaxRun()})
	if err != nil {
		return nil, err
	}
	meta, err := buddy.New(s.Disk, s.MetaArea(), metaOrder(s.maxOrder))
	if err != nil {
		return nil, err
	}
	leaf, err := buddy.New(s.Disk, s.leafArea, buddy.WithMaxOrder(s.maxOrder))
	if err != nil {
		return nil, err
	}
	return &Store{
		Disk:     s.Disk,
		Pool:     pool,
		Clock:    s.Clock,
		Leaf:     leaf,
		Meta:     meta,
		leafArea: s.leafArea,
		maxOrder: s.maxOrder,
		pageSize: s.pageSize,
	}, nil
}

// LoadAllocators replaces both allocators with ones decoded from the
// on-disk buddy space directories, trusting them as written. Recovery
// ignores the directories (they may be stale after a crash) and uses
// RebuildAllocators instead; LoadAllocators is for diagnostics such as
// fsck, which wants exactly the recorded allocation state so it can be
// cross-checked against reachability.
func (s *Store) LoadAllocators() error {
	m, err := buddy.Open(s.Disk, s.MetaArea(), metaOrder(s.maxOrder))
	if err != nil {
		return fmt.Errorf("store: loading meta allocator: %w", err)
	}
	l, err := buddy.Open(s.Disk, s.leafArea, buddy.WithMaxOrder(s.maxOrder))
	if err != nil {
		return fmt.Errorf("store: loading leaf allocator: %w", err)
	}
	s.Meta, s.Leaf = m, l
	return nil
}

// RebuildAllocators installs allocation state recovered from reachability:
// the union of the given page ranges is allocated, everything else is
// free. This is the recovery step of shadow paging — stale on-disk space
// directories are ignored and orphaned mid-operation allocations are
// reclaimed implicitly.
func (s *Store) RebuildAllocators(meta, leaf []buddy.Range) error {
	m, err := buddy.FromReachable(s.Disk, s.MetaArea(), meta, metaOrder(s.maxOrder))
	if err != nil {
		return fmt.Errorf("store: rebuilding meta allocator: %w", err)
	}
	l, err := buddy.FromReachable(s.Disk, s.leafArea, leaf, buddy.WithMaxOrder(s.maxOrder))
	if err != nil {
		return fmt.Errorf("store: rebuilding leaf allocator: %w", err)
	}
	s.Meta, s.Leaf = m, l
	return nil
}
