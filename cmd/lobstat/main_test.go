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

func TestRunOnImage(t *testing.T) {
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
	if err := run(cfg.Dir, true, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"clip", "eos", "100000 bytes", "record file", "seg", "pages in use"} {
		if !strings.Contains(out, want) {
			t.Errorf("lobstat output missing %q:\n%s", want, out)
		}
	}
	if dirBytes(t, cfg.Dir) != before {
		t.Error("lobstat modified the database directory")
	}
}

func TestRunOnGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "junk"), []byte("nonsense"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(dir, false, io.Discard); err == nil {
		t.Fatal("directory without super.lob accepted")
	}
	if err := run(filepath.Join(dir, "junk"), false, io.Discard); err == nil {
		t.Fatal("plain file accepted")
	}
	if err := run(filepath.Join(dir, "missing"), false, io.Discard); err == nil {
		t.Fatal("missing path accepted")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("refused run left files behind: %v %v", entries, err)
	}
	if err := os.Rename(filepath.Join(dir, "junk"), filepath.Join(dir, "super.lob")); err != nil {
		t.Fatal(err)
	}
	if err := run(dir, false, io.Discard); err == nil {
		t.Fatal("garbage superblock accepted")
	}
}
