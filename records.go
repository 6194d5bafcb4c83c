package lobstore

import (
	"fmt"

	"lobstore/internal/catalog"
	"lobstore/internal/record"
)

// RID identifies a record in a RecordFile.
type RID = record.RID

// Field is one record attribute: inline bytes or a long field descriptor.
type Field = record.Field

// LongRef is a long field descriptor embedded in a record.
type LongRef = record.LongRef

// ShortField builds an inline attribute.
func ShortField(data []byte) Field { return record.ShortField(data) }

// RecordFile stores small objects: records of short fields plus long field
// descriptors (§2 of the paper). Records must fit in one page; oversized
// attributes are stored as long fields under one of the three large object
// managers. On a Concurrent database every method runs as an engine
// operation and long fields come back as locking handles, so a record file
// may be used while other goroutines work on the same database.
type RecordFile struct {
	db *DB
	f  *record.File
}

// CreateRecordFile makes a new named record file registered in the
// database catalog.
func (db *DB) CreateRecordFile(name string) (*RecordFile, error) {
	rf := &RecordFile{db: db}
	err := db.run(func() (err error) {
		if rf.f, err = record.NewFile(db.st); err != nil {
			return err
		}
		return db.cat.Put(catalog.Entry{Name: name, Kind: catalog.KindRecord, Root: rf.f.Root()})
	})
	if err != nil {
		return nil, err
	}
	return rf, nil
}

// OpenRecordFile reattaches to a named record file.
func (db *DB) OpenRecordFile(name string) (*RecordFile, error) {
	rf := &RecordFile{db: db}
	err := db.run(func() error {
		e, ok, err := db.cat.Get(name)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("lobstore: no record file named %q", name)
		}
		if e.Kind != catalog.KindRecord {
			return fmt.Errorf("lobstore: %q is a %v object, not a record file", name, e.Kind)
		}
		rf.f, err = record.OpenFile(db.st, e.Root)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rf, nil
}

// Insert stores a record and returns its RID.
func (rf *RecordFile) Insert(fields []Field) (rid RID, err error) {
	err = rf.db.run(func() (err error) {
		rid, err = rf.f.Insert(fields)
		return err
	})
	return rid, err
}

// Read fetches a record by RID.
func (rf *RecordFile) Read(rid RID) (fields []Field, err error) {
	err = rf.db.run(func() (err error) {
		fields, err = rf.f.Read(rid)
		return err
	})
	return fields, err
}

// Delete removes a record. Long fields it references stay allocated until
// DestroyLongField is called on their descriptors.
func (rf *RecordFile) Delete(rid RID) error {
	return rf.db.run(func() error { return rf.f.Delete(rid) })
}

// NewLongField creates a large object to back one attribute and returns
// the live object plus the descriptor to embed in a record. spec is the
// same engine selector used by DB.Create.
func (rf *RecordFile) NewLongField(spec ObjectSpec) (Object, LongRef, error) {
	var ref LongRef
	obj, err := rf.db.object(func() (managed, error) {
		m, kind, err := createManaged(rf.db.st, spec)
		if err == nil {
			ref = LongRef{Kind: kind, Root: m.Root()}
		}
		return m, err
	})
	return obj, ref, err
}

// OpenLongField reattaches to a long field from its descriptor.
func (rf *RecordFile) OpenLongField(ref LongRef) (Object, error) {
	return rf.db.object(func() (managed, error) { return openManaged(rf.db.st, ref.Kind, ref.Root) })
}

// DestroyLongField releases the storage behind a long field descriptor.
func (rf *RecordFile) DestroyLongField(ref LongRef) error {
	obj, err := rf.OpenLongField(ref)
	if err != nil {
		return err
	}
	return obj.Destroy()
}
