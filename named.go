package lobstore

import (
	"errors"
	"fmt"

	"lobstore/internal/catalog"
	"lobstore/internal/core"
	"lobstore/internal/disk"
	"lobstore/internal/engine"
	"lobstore/internal/eos"
	"lobstore/internal/esm"
	"lobstore/internal/starburst"
	"lobstore/internal/store"
)

// ObjectSpec describes a named object's storage structure and parameters.
type ObjectSpec struct {
	// Engine selects the storage structure: "esm", "starburst" or "eos".
	Engine string
	// LeafPages is the ESM fixed leaf size (ignored otherwise).
	LeafPages int
	// Threshold is the EOS segment size threshold (ignored otherwise).
	Threshold int
	// MaxSegmentPages caps segment growth for Starburst and EOS; zero
	// selects the allocator maximum.
	MaxSegmentPages int
}

// ObjectInfo summarizes one cataloged object.
type ObjectInfo struct {
	Name   string
	Engine string
}

// managed is what every manager's New and Open return: a large object that
// can also enumerate the pages it owns and name its durable root.
type managed interface {
	core.Object
	core.PageMarker
	Root() disk.Addr
}

// managers is the one place that knows the three storage structures: a
// catalog kind (whose String is the ObjectSpec engine name) maps to the
// manager's constructor and opener. Named objects, long fields, snapshots,
// recovery and fsck all go through it.
var managers = map[catalog.Kind]struct {
	create func(*store.Store, ObjectSpec) (managed, error)
	open   func(*store.Store, disk.Addr) (managed, error)
}{
	catalog.KindESM: {
		create: func(st *store.Store, s ObjectSpec) (managed, error) {
			return esm.New(st, esm.Config{LeafPages: s.LeafPages})
		},
		open: func(st *store.Store, root disk.Addr) (managed, error) { return esm.Open(st, root) },
	},
	catalog.KindStarburst: {
		create: func(st *store.Store, s ObjectSpec) (managed, error) {
			return starburst.New(st, starburst.Config{MaxSegmentPages: s.MaxSegmentPages})
		},
		open: func(st *store.Store, root disk.Addr) (managed, error) { return starburst.Open(st, root) },
	},
	catalog.KindEOS: {
		create: func(st *store.Store, s ObjectSpec) (managed, error) {
			return eos.New(st, eos.Config{Threshold: s.Threshold, MaxSegmentPages: s.MaxSegmentPages})
		},
		open: func(st *store.Store, root disk.Addr) (managed, error) { return eos.Open(st, root) },
	},
}

// createManaged builds a new object under the manager spec.Engine names
// and writes its root through, so the volume holds the object's committed
// image from its creation on (§3.3: the root is the commit point). A named
// object or long field therefore reopens after a crash right behind its
// creation, and a snapshot can freeze its root from the volume alone.
func createManaged(st *store.Store, spec ObjectSpec) (managed, catalog.Kind, error) {
	for kind, mgr := range managers {
		if kind.String() == spec.Engine {
			m, err := mgr.create(st, spec)
			if err == nil {
				err = st.Pool.FlushPage(m.Root())
			}
			return m, kind, err
		}
	}
	return nil, 0, fmt.Errorf("lobstore: unknown engine %q (esm, starburst, eos)", spec.Engine)
}

// openManaged reattaches to the object of the given kind rooted at root.
func openManaged(st *store.Store, kind catalog.Kind, root disk.Addr) (managed, error) {
	mgr, ok := managers[kind]
	if !ok {
		return nil, fmt.Errorf("unknown kind %v of the object at %v", kind, root)
	}
	return mgr.open(st, root)
}

// Create makes a new named large object. Named objects are registered in
// the database catalog, so a file-backed database finds them again when it
// is reopened.
func (db *DB) Create(name string, spec ObjectSpec) (Object, error) {
	return db.object(func() (managed, error) {
		m, kind, err := createManaged(db.st, spec)
		if err != nil {
			return nil, err
		}
		if err := db.cat.Put(catalog.Entry{Name: name, Kind: kind, Root: m.Root()}); err != nil {
			// Roll the object back so a name clash leaks no space. A failed
			// rollback leaks pages: report it alongside the primary error.
			if derr := m.Destroy(); derr != nil {
				return nil, errors.Join(err, fmt.Errorf("lobstore: rollback of %q failed: %w", name, derr))
			}
			return nil, err
		}
		return m, nil
	})
}

// OpenObject reattaches to a named object created earlier (possibly in a
// previous session of a file-backed database).
func (db *DB) OpenObject(name string) (Object, error) {
	return db.object(func() (managed, error) { return db.openRaw(name) })
}

// lookup finds a named object's catalog entry against the bare store.
func (db *DB) lookup(name string) (catalog.Entry, error) {
	e, ok, err := db.cat.Get(name)
	if err == nil && !ok {
		err = fmt.Errorf("lobstore: %w: no object named %q", ErrNotExist, name)
	}
	return e, err
}

// openRaw reattaches to a cataloged object against the bare store.
func (db *DB) openRaw(name string) (managed, error) {
	e, err := db.lookup(name)
	if err != nil {
		return nil, err
	}
	m, err := openManaged(db.st, e.Kind, e.Root)
	if err != nil {
		return nil, fmt.Errorf("lobstore: object %q: %w", name, err)
	}
	return m, nil
}

// Snapshot opens a read-only view of a named object frozen at its current
// committed state. Requires Config.Concurrent. The snapshot reads
// lock-free against the §3.3 pre-image while writers keep mutating the
// live object; Close it to let the space its image pins be reclaimed.
func (db *DB) Snapshot(name string) (*Snapshot, error) {
	if db.eng == nil {
		return nil, fmt.Errorf("lobstore: snapshots require Config.Concurrent")
	}
	var e catalog.Entry
	err := db.run(func() (err error) {
		e, err = db.lookup(name)
		return err
	})
	if err != nil {
		return nil, err
	}
	mgr, ok := managers[e.Kind]
	if !ok {
		return nil, fmt.Errorf("lobstore: object %q: unknown kind %v", name, e.Kind)
	}
	return db.eng.OpenSnapshot(e.Root, func(st *store.Store, root disk.Addr) (core.Object, error) {
		return mgr.open(st, root)
	})
}

// Snapshot is a frozen read-only view of one object; see DB.Snapshot.
type Snapshot = engine.Snapshot

// Drop destroys a named object and removes it from the catalog.
func (db *DB) Drop(name string) error {
	return db.run(func() error {
		obj, err := db.openRaw(name)
		if err != nil {
			return err
		}
		if err := obj.Destroy(); err != nil {
			return err
		}
		return db.cat.Delete(name)
	})
}

// Objects lists the cataloged objects.
func (db *DB) Objects() (out []ObjectInfo, err error) {
	err = db.run(func() error {
		entries, err := db.cat.List()
		if err != nil {
			return err
		}
		out = make([]ObjectInfo, len(entries))
		for i, e := range entries {
			out[i] = ObjectInfo{Name: e.Name, Engine: e.Kind.String()}
		}
		return nil
	})
	return out, err
}

// catalogAddr is the fixed location of the first catalog page: the first
// page the metadata allocator hands out in a fresh database (page 0 is the
// buddy space directory).
func catalogAddr() disk.Addr { return disk.Addr{Area: 0, Page: 1} }
