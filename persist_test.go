package lobstore_test

import (
	"bytes"
	"testing"

	"lobstore"
)

// TestImageRoundTrip exercises the full persistence stack: named objects
// under all three managers in a file-backed database, a close, a reopen,
// and byte-exact reads plus further updates in the reopened database.
func TestImageRoundTrip(t *testing.T) {
	cfg := fileConfig(t.TempDir())
	db, err := lobstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[string][]byte{}
	specs := map[string]lobstore.ObjectSpec{
		"pictures": {Engine: "esm", LeafPages: 4},
		"audio":    {Engine: "starburst", MaxSegmentPages: 64},
		"article":  {Engine: "eos", Threshold: 4},
	}
	for name, spec := range specs {
		obj, err := db.Create(name, spec)
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		data := bytes.Repeat([]byte(name+"|"), 9000)
		if err := obj.Append(data); err != nil {
			t.Fatal(err)
		}
		if err := obj.Insert(1000, []byte("<edit>")); err != nil {
			t.Fatal(err)
		}
		data = append(data[:1000:1000], append([]byte("<edit>"), data[1000:]...)...)
		if err := obj.Close(); err != nil {
			t.Fatal(err)
		}
		payloads[name] = data
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and verify everything, then keep editing.
	db2, err := lobstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := db2.Objects()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(specs) {
		t.Fatalf("reopened catalog has %d objects, want %d", len(infos), len(specs))
	}
	for name, want := range payloads {
		obj, err := db2.OpenObject(name)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		if obj.Size() != int64(len(want)) {
			t.Fatalf("%s: size %d, want %d", name, obj.Size(), len(want))
		}
		got := make([]byte, obj.Size())
		if err := obj.Read(0, got); err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: content corrupted across close and reopen", name)
		}
		// Updates must work in the reopened database (allocator state was
		// rebuilt from reachability).
		if err := obj.Append([]byte("appended-after-reopen")); err != nil {
			t.Fatalf("%s: append after reopen: %v", name, err)
		}
		if err := obj.Delete(5, 3); err != nil {
			t.Fatalf("%s: delete after reopen: %v", name, err)
		}
		want = append(want, []byte("appended-after-reopen")...)
		want = append(want[:5:5], want[8:]...)
		got = make([]byte, obj.Size())
		if err := obj.Read(0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: content wrong after post-reopen updates", name)
		}
	}

	// A second close/reopen cycle must also work.
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := lobstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if _, err := db3.OpenObject("article"); err != nil {
		t.Fatal(err)
	}
}

func TestCreateValidation(t *testing.T) {
	db, err := lobstore.Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Create("x", lobstore.ObjectSpec{Engine: "bogus"}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := db.Create("a", lobstore.ObjectSpec{Engine: "eos", Threshold: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Create("a", lobstore.ObjectSpec{Engine: "esm", LeafPages: 1}); err == nil {
		t.Error("duplicate name accepted")
	}
	// The failed duplicate creation must not leak space: the object was
	// rolled back.
	if err := db.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.OpenObject("a"); err == nil {
		t.Error("dropped object still opens")
	}
	if err := db.Drop("a"); err == nil {
		t.Error("double drop succeeded")
	}
}

func TestOpenObjectWrongKindDetected(t *testing.T) {
	db, err := lobstore.Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	obj, err := db.Create("doc", lobstore.ObjectSpec{Engine: "eos", Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Append(make([]byte, 5000)); err != nil {
		t.Fatal(err)
	}
	// Reopening under the right name works.
	if _, err := db.OpenObject("doc"); err != nil {
		t.Fatal(err)
	}
}
