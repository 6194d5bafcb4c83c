package lobstore_test

import (
	"bytes"
	"testing"

	"lobstore"
)

func TestRecordFileBasics(t *testing.T) {
	db, err := lobstore.Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rf, err := db.CreateRecordFile("table")
	if err != nil {
		t.Fatal(err)
	}
	rid, err := rf.Insert([]lobstore.Field{
		lobstore.ShortField([]byte("row-1")),
		lobstore.ShortField([]byte{9, 9, 9}),
	})
	if err != nil {
		t.Fatal(err)
	}
	fields, err := rf.Read(rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(fields[0].Inline) != "row-1" {
		t.Fatalf("fields %+v", fields)
	}
	if err := rf.Delete(rid); err != nil {
		t.Fatal(err)
	}
	// Name clashes with any catalog object, not just record files.
	if _, err := db.Create("table", lobstore.ObjectSpec{Engine: "eos", Threshold: 1}); err == nil {
		t.Error("record file name reused for an object")
	}
	if _, err := db.OpenRecordFile("missing"); err == nil {
		t.Error("opened missing record file")
	}
	// Opening a large object as a record file is rejected.
	if _, err := db.Create("blob", lobstore.ObjectSpec{Engine: "eos", Threshold: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.OpenRecordFile("blob"); err == nil {
		t.Error("opened a large object as a record file")
	}
	// Long fields name their manager like DB.Create does; unknown ones are
	// refused on both the creating and the reopening side.
	if _, _, err := rf.NewLongField(lobstore.ObjectSpec{Engine: "bogus"}); err == nil {
		t.Error("long field under an unknown engine accepted")
	}
	if _, err := rf.OpenLongField(lobstore.LongRef{Kind: 99}); err == nil {
		t.Error("long field descriptor of an unknown kind accepted")
	}
}

func TestRecordFileLongFieldsSurviveImage(t *testing.T) {
	cfg := fileConfig(t.TempDir())
	db, err := lobstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := db.CreateRecordFile("assets")
	if err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte{0x42}, 123_456)
	obj, ref, err := rf.NewLongField(lobstore.ObjectSpec{Engine: "esm", LeafPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Append(blob); err != nil {
		t.Fatal(err)
	}
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	rid, err := rf.Insert([]lobstore.Field{
		lobstore.ShortField([]byte("asset-7")),
		{Long: &ref},
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := lobstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rf2, err := db2.OpenRecordFile("assets")
	if err != nil {
		t.Fatal(err)
	}
	fields, err := rf2.Read(rid)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := rf2.OpenLongField(*fields[1].Long)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, lf.Size())
	if err := lf.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("long field corrupted across close and reopen")
	}
	if err := rf2.DestroyLongField(*fields[1].Long); err != nil {
		t.Fatal(err)
	}
}
