package lobstore_test

import (
	"testing"

	"lobstore"
)

// TestInspectLayouts validates the Layout view of all three managers: the
// segments must tile the object exactly, page counts must be consistent
// with dense packing, and the data and index pages must agree with
// Utilization. Each object is checked three times: open right after its
// appends (EOS and Starburst still over-allocate their last segment),
// after an insert and Close, and after OpenObject on the reopened
// file-backed store.
func TestInspectLayouts(t *testing.T) {
	const size = 300_000
	for _, spec := range []lobstore.ObjectSpec{
		{Engine: "esm", LeafPages: 4},
		{Engine: "starburst", MaxSegmentPages: 16},
		{Engine: "eos", Threshold: 4},
	} {
		t.Run(spec.Engine, func(t *testing.T) {
			dir := t.TempDir()
			db, err := lobstore.Open(fileConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			obj, err := db.Create("obj", spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := obj.Append(make([]byte, size)); err != nil {
				t.Fatal(err)
			}
			if l := checkLayout(t, "appended", obj); spec.Engine != "esm" {
				last := l.Segments[len(l.Segments)-1]
				if int64(last.Pages)*4096-last.Bytes < 4096 {
					t.Fatalf("appended: last segment %+v carries no growth slack", last)
				}
			}
			if err := obj.Insert(1234, make([]byte, 5000)); err != nil {
				t.Fatal(err)
			}
			if err := obj.Close(); err != nil {
				t.Fatal(err)
			}
			checkLayout(t, "closed", obj)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = lobstore.Open(fileConfig(dir)); err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if obj, err = db.OpenObject("obj"); err != nil {
				t.Fatal(err)
			}
			checkLayout(t, "reopened", obj)
		})
	}
}

// checkLayout checks obj's Layout against its size and Utilization.
func checkLayout(t *testing.T, state string, obj lobstore.Object) lobstore.Layout {
	t.Helper()
	l, err := lobstore.Inspect(obj)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i, s := range l.Segments {
		if s.Bytes <= 0 || s.Pages <= 0 {
			t.Fatalf("%s: segment %d: %+v", state, i, s)
		}
		if int64(s.Pages)*4096 < s.Bytes {
			t.Fatalf("%s: segment %d holds %d bytes in %d pages", state, i, s.Bytes, s.Pages)
		}
		total += s.Bytes
	}
	if total != obj.Size() {
		t.Fatalf("%s: layout covers %d bytes, object has %d", state, total, obj.Size())
	}
	if l.IndexPages < 1 {
		t.Fatalf("%s: no index pages reported", state)
	}
	// Utilization derived from the layout must agree with the object's own
	// accounting.
	var pages int64
	for _, s := range l.Segments {
		pages += int64(s.Pages)
	}
	if u := obj.Utilization(); u.DataPages != pages {
		t.Fatalf("%s: layout pages %d, utilization reports %d", state, pages, u.DataPages)
	} else if u.IndexPages != int64(l.IndexPages) {
		t.Fatalf("%s: layout index pages %d, utilization reports %d", state, l.IndexPages, u.IndexPages)
	}
	return l
}
