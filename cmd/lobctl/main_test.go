package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lobstore"
)

func testDB(t *testing.T) (*lobstore.DB, lobstore.Object) {
	t.Helper()
	cfg := lobstore.DefaultConfig()
	cfg.LeafAreaPages = 1 << 14
	cfg.MetaAreaPages = 1 << 12
	cfg.MaxSegmentPages = 512
	db, err := lobstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := db.NewEOS(4)
	if err != nil {
		t.Fatal(err)
	}
	return db, obj
}

func TestRunScript(t *testing.T) {
	db, obj := testDB(t)
	script := strings.Join([]string{
		"# a comment",
		"",
		"append 100K",
		"insert 5000 4K",
		"read 0 64",
		"replace 10 32",
		"delete 100 2K",
		"scan 8K",
		"stat",
		"help",
		"close",
		"destroy",
	}, "\n")
	var out strings.Builder
	if err := run(db, obj, strings.NewReader(script), &out); err != nil {
		t.Fatalf("script failed: %v\noutput:\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"append 100K", "ios=", "cost=", "size=", "data[0:+64]"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunRejectsBadCommands(t *testing.T) {
	for _, script := range []string{
		"frobnicate 1",
		"append",
		"insert 10",
		"read 0 -5",
		"append 10X",
	} {
		db, obj := testDB(t)
		var out strings.Builder
		if err := run(db, obj, strings.NewReader(script), &out); err == nil {
			t.Errorf("script %q succeeded", script)
		}
	}
}

func TestRunSurfacesObjectErrors(t *testing.T) {
	db, obj := testDB(t)
	var out strings.Builder
	if err := run(db, obj, strings.NewReader("read 100 10"), &out); err == nil {
		t.Error("read past end of empty object succeeded")
	}
}

// TestFileBackendSessions drives two lobctl-style sessions against one
// durable directory: the second run must reattach to the object the first
// created, with its bytes intact.
func TestFileBackendSessions(t *testing.T) {
	dir := t.TempDir()
	cfg := lobstore.DefaultConfig()
	cfg.LeafAreaPages = 1 << 14
	cfg.MetaAreaPages = 1 << 12
	cfg.MaxSegmentPages = 512
	cfg.Backend, cfg.Dir, cfg.SyncPolicy = "file", dir, "commit"

	session := func(script string) string {
		t.Helper()
		db, err := lobstore.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := openOrCreate(db, "eos", 4, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := run(db, obj, strings.NewReader(script), &out); err != nil {
			t.Fatalf("script failed: %v\noutput:\n%s", err, out.String())
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}

	session("append 100K\ninsert 5000 4K")
	text := session("stat\nread 0 64")
	if !strings.Contains(text, "size=106496 bytes") {
		t.Errorf("reopened object lost bytes:\n%s", text)
	}

	rep, err := lobstore.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Objects != 1 {
		t.Errorf("fsck after two sessions: objects=%d leaked=%v doubly-owned=%v",
			rep.Objects, rep.Leaked, rep.DoublyOwned)
	}
}

// dirBytes returns every file of dir concatenated under its name.
func dirBytes(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(e.Name() + "\x00" + string(data))
	}
	return b.String()
}

// TestFsckListing: fsck -v lists every object of a durable store, with
// its layout and the space totals, and leaves the directory's bytes as
// they were.
func TestFsckListing(t *testing.T) {
	cfg := lobstore.DefaultConfig()
	cfg.LeafAreaPages = 1 << 14
	cfg.MetaAreaPages = 1 << 12
	cfg.MaxSegmentPages = 256
	cfg.Backend, cfg.Dir = "file", t.TempDir()
	db, err := lobstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := db.Create("clip", lobstore.ObjectSpec{Engine: "eos", Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Append(bytes.Repeat([]byte{7}, 100_000)); err != nil {
		t.Fatal(err)
	}
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRecordFile("meta"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	before := dirBytes(t, cfg.Dir)
	var buf bytes.Buffer
	clean, err := fsck(cfg.Dir, true, &buf)
	if err != nil || !clean {
		t.Fatalf("fsck: clean %v, %v\n%s", clean, err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"clip", "eos", "100000 bytes", "meta", "record file", "seg", "pages in use", "clean"} {
		if !strings.Contains(out, want) {
			t.Errorf("fsck -v output missing %q:\n%s", want, out)
		}
	}
	if dirBytes(t, cfg.Dir) != before {
		t.Error("fsck -v modified the database directory")
	}
}

// TestFsckOnGarbage: fsck refuses what is not a database directory and
// creates nothing while refusing.
func TestFsckOnGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "junk"), []byte("nonsense"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{dir, filepath.Join(dir, "junk"), filepath.Join(dir, "missing")} {
		if _, err := fsck(path, true, io.Discard); err == nil {
			t.Fatalf("fsck accepted %s", path)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("refused run left files behind: %v %v", entries, err)
	}
	if err := os.Rename(filepath.Join(dir, "junk"), filepath.Join(dir, "super.lob")); err != nil {
		t.Fatal(err)
	}
	if _, err := fsck(dir, true, io.Discard); err == nil {
		t.Fatal("garbage superblock accepted")
	}
}

func TestParseSize(t *testing.T) {
	if n, err := parseSize("64K"); err != nil || n != 65536 {
		t.Errorf("parseSize(64K) = %d, %v", n, err)
	}
	if _, err := parseSize("-1"); err == nil {
		t.Error("negative size accepted")
	}
}
