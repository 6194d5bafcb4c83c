package record

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"lobstore/internal/catalog"
	"lobstore/internal/eos"
	"lobstore/internal/lobtest"
	"lobstore/internal/starburst"
	"lobstore/internal/store"
)

func newFile(t *testing.T) (*File, *store.Store) {
	t.Helper()
	st := lobtest.NewStore(t, lobtest.TestParams())
	f, err := NewFile(st)
	if err != nil {
		t.Fatal(err)
	}
	return f, st
}

func TestInsertReadDelete(t *testing.T) {
	f, _ := newFile(t)
	rid, err := f.Insert([]Field{
		ShortField([]byte("alice")),
		ShortField([]byte{1, 2, 3}),
	})
	if err != nil {
		t.Fatal(err)
	}
	fields, err := f.Read(rid)
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 2 || string(fields[0].Inline) != "alice" || !bytes.Equal(fields[1].Inline, []byte{1, 2, 3}) {
		t.Fatalf("read back %+v", fields)
	}
	if err := f.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(rid); err == nil {
		t.Fatal("read of deleted record succeeded")
	}
	if err := f.Delete(rid); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestEmptyAndZeroLengthFields(t *testing.T) {
	f, _ := newFile(t)
	rid, err := f.Insert([]Field{ShortField(nil), ShortField([]byte{})})
	if err != nil {
		t.Fatal(err)
	}
	fields, err := f.Read(rid)
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 2 || len(fields[0].Inline) != 0 || len(fields[1].Inline) != 0 {
		t.Fatalf("zero-length fields: %+v", fields)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	f, _ := newFile(t)
	big := make([]byte, 5000)
	if _, err := f.Insert([]Field{ShortField(big)}); err == nil {
		t.Fatal("page-sized record accepted; should demand a long field")
	}
}

// TestPersonExample reproduces §2's example: a person record with a short
// name and two long fields (picture, voice) under different managers,
// "because it is easier to treat the long fields within the same object in
// different ways".
func TestPersonExample(t *testing.T) {
	f, st := newFile(t)

	picture := bytes.Repeat([]byte{0xAB}, 300_000) // a "compressed image"
	voice := bytes.Repeat([]byte{0xCD}, 150_000)   // an "audio clip"

	picObj, err := eos.New(st, eos.Config{Threshold: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := picObj.Append(picture); err != nil {
		t.Fatal(err)
	}
	picRef := LongRef{Kind: catalog.KindEOS, Root: picObj.Root()}
	voiceObj, err := starburst.New(st, starburst.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := voiceObj.Append(voice); err != nil {
		t.Fatal(err)
	}
	voiceRef := LongRef{Kind: catalog.KindStarburst, Root: voiceObj.Root()}

	rid, err := f.Insert([]Field{
		ShortField([]byte("Ada Lovelace")),
		LongField(picRef),
		LongField(voiceRef),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Read the record back and follow its long field descriptors.
	fields, err := f.Read(rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(fields[0].Inline) != "Ada Lovelace" {
		t.Fatal("name corrupted")
	}
	if *fields[1].Long != picRef || *fields[2].Long != voiceRef {
		t.Fatalf("descriptors changed: %+v %+v", *fields[1].Long, *fields[2].Long)
	}
	pic, err := eos.Open(st, fields[1].Long.Root)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, pic.Size())
	if err := pic.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, picture) {
		t.Fatal("picture corrupted")
	}
	vo, err := starburst.Open(st, fields[2].Long.Root)
	if err != nil {
		t.Fatal(err)
	}
	got = make([]byte, vo.Size())
	if err := vo.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, voice) {
		t.Fatal("voice corrupted")
	}

	// Destroy the long fields reopened from their descriptors.
	if err := pic.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := vo.Destroy(); err != nil {
		t.Fatal(err)
	}
}

func TestManyRecordsAcrossPages(t *testing.T) {
	f, st := newFile(t)
	var rids []RID
	for i := 0; i < 500; i++ {
		rid, err := f.Insert([]Field{
			ShortField([]byte(fmt.Sprintf("record-%04d", i))),
			ShortField(bytes.Repeat([]byte{byte(i)}, i%100)),
		})
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		rids = append(rids, rid)
	}
	// Re-read everything, including through a reopened handle.
	f2, err := OpenFile(st, f.Root())
	if err != nil {
		t.Fatal(err)
	}
	for i, rid := range rids {
		fields, err := f2.Read(rid)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if string(fields[0].Inline) != fmt.Sprintf("record-%04d", i) {
			t.Fatalf("record %d corrupted", i)
		}
		if len(fields[1].Inline) != i%100 {
			t.Fatalf("record %d second field length %d", i, len(fields[1].Inline))
		}
	}
}

func TestSlotReuseAfterDelete(t *testing.T) {
	f, _ := newFile(t)
	rid1, err := f.Insert([]Field{ShortField([]byte("a"))})
	if err != nil {
		t.Fatal(err)
	}
	rid2, err := f.Insert([]Field{ShortField([]byte("b"))})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Delete(rid1); err != nil {
		t.Fatal(err)
	}
	rid3, err := f.Insert([]Field{ShortField([]byte("c"))})
	if err != nil {
		t.Fatal(err)
	}
	if rid3 != rid1 {
		t.Logf("tombstoned slot not reused (%v vs %v) — allowed but unexpected", rid3, rid1)
	}
	fields, err := f.Read(rid2)
	if err != nil || string(fields[0].Inline) != "b" {
		t.Fatalf("neighbour record damaged: %v %v", fields, err)
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	prop := func(vals [][]byte) bool {
		fields := make([]Field, len(vals))
		for i, v := range vals {
			if len(v) > 200 {
				v = v[:200]
			}
			fields[i] = ShortField(v)
		}
		enc, err := encodeRecord(fields)
		if err != nil {
			return false
		}
		dec, err := decodeRecord(enc)
		if err != nil {
			return false
		}
		if len(dec) != len(fields) {
			return false
		}
		for i := range fields {
			want := fields[i].Inline
			if want == nil {
				want = []byte{}
			}
			got := dec[i].Inline
			if got == nil {
				got = []byte{}
			}
			if !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		{1},
		{1, 0, 9},                  // unknown tag
		{1, 0, 0},                  // truncated short
		{1, 0, 1},                  // truncated long
		{2, 0, 0, 5, 0, 0, 0, 'x'}, // second field missing
	} {
		if _, err := decodeRecord(data); err == nil {
			t.Errorf("decoded garbage % x", data)
		}
	}
}

func TestFieldValidation(t *testing.T) {
	f, _ := newFile(t)
	bad := Field{Inline: []byte{1}, Long: &LongRef{}}
	if _, err := f.Insert([]Field{bad}); err == nil {
		t.Fatal("field that is both short and long accepted")
	}
}
