package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"lobstore"
	"lobstore/internal/obs"
)

// writeTrace runs a small workload with tracing enabled and returns the
// trace file path plus the stats the run accumulated.
func writeTrace(t *testing.T, dir, name string, appendBytes int) (string, lobstore.Stats) {
	t.Helper()
	cfg := lobstore.DefaultConfig()
	cfg.LeafAreaPages = 1 << 14
	cfg.MetaAreaPages = 1 << 12
	cfg.MaxSegmentPages = 512
	db, err := lobstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	db.EnableTrace(f)
	base := db.Stats()
	obj, err := db.NewEOS(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Append(make([]byte, appendBytes)); err != nil {
		t.Fatal(err)
	}
	if err := obj.Insert(100, make([]byte, 10<<10)); err != nil {
		t.Fatal(err)
	}
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.FlushTrace(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, db.Stats().Sub(base)
}

func TestLoadAgreesWithStats(t *testing.T) {
	dir := t.TempDir()
	path, stats := writeTrace(t, dir, "a.jsonl", 100<<10)
	m, events, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("empty trace")
	}
	if m.Counter("io.read.calls") != stats.ReadCalls ||
		m.Counter("io.write.calls") != stats.WriteCalls ||
		m.Counter("io.seek.pages") != stats.SeekDistance {
		t.Fatalf("summary registry disagrees with run stats %+v", stats)
	}
}

func TestSummaryAndDiff(t *testing.T) {
	dir := t.TempDir()
	a, _ := writeTrace(t, dir, "a.jsonl", 50<<10)
	b, _ := writeTrace(t, dir, "b.jsonl", 200<<10)

	out := captureStdout(t, func() {
		if err := summary([]string{a}); err != nil {
			t.Error(err)
		}
	})
	for _, want := range []string{"events", "io.write.calls", "op.append.count"} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("summary output missing %q:\n%s", want, out)
		}
	}

	out = captureStdout(t, func() {
		if err := summary([]string{"-csv", a}); err != nil {
			t.Error(err)
		}
	})
	if !bytes.HasPrefix(out, []byte("type,name,bucket,value\n")) {
		t.Errorf("csv summary missing header:\n%s", out)
	}

	out = captureStdout(t, func() {
		if err := diff([]string{a, b}); err != nil {
			t.Error(err)
		}
	})
	// The larger build writes more pages, so the counter must show up.
	if !bytes.Contains(out, []byte("io.write.pages")) {
		t.Errorf("diff output missing changed counter:\n%s", out)
	}

	out = captureStdout(t, func() {
		if err := diff([]string{a, a}); err != nil {
			t.Error(err)
		}
	})
	if !bytes.Contains(out, []byte("no counter differences")) {
		t.Errorf("self-diff reported changes:\n%s", out)
	}

	if err := summary([]string{filepath.Join(dir, "missing.jsonl")}); err == nil {
		t.Error("summary of missing file did not error")
	}
	if err := diff([]string{a}); err == nil {
		t.Error("diff with one file did not error")
	}
}

// writeSyntheticTrace serializes the given events as a JSONL trace file.
func writeSyntheticTrace(t *testing.T, dir, name string, events []obs.Event) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	j := obs.NewJSONL(f)
	for _, e := range events {
		j.Record(e)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffHandlesOneSidedOpLatency pins the fix for lazily-created latency
// histograms: an op recorded in only one trace must still produce a row,
// with "-" standing in for the absent side, instead of being skipped.
func TestDiffHandlesOneSidedOpLatency(t *testing.T) {
	dir := t.TempDir()
	a := writeSyntheticTrace(t, dir, "a.jsonl", []obs.Event{
		{Time: 10, Kind: obs.KindSpanEnd, Op: obs.OpRead, Aux1: 1500},
	})
	b := writeSyntheticTrace(t, dir, "b.jsonl", []obs.Event{
		{Time: 10, Kind: obs.KindSpanEnd, Op: obs.OpRead, Aux1: 2500},
		{Time: 20, Kind: obs.KindSpanEnd, Op: obs.OpDestroy, Aux1: 900},
	})
	out := captureStdout(t, func() {
		if err := diff([]string{a, b}); err != nil {
			t.Error(err)
		}
	})
	if !bytes.Contains(out, []byte("op.read.latency")) {
		t.Errorf("diff missing two-sided latency row:\n%s", out)
	}
	if !bytes.Contains(out, []byte("op.destroy.latency")) {
		t.Errorf("diff missing one-sided latency row:\n%s", out)
	}
	if !bytes.Contains(out, []byte("mean - -> 900.0")) {
		t.Errorf("diff did not render absent side as '-':\n%s", out)
	}
	// Reversed order: the absent histogram is on the b side.
	out = captureStdout(t, func() {
		if err := diff([]string{b, a}); err != nil {
			t.Error(err)
		}
	})
	if !bytes.Contains(out, []byte("mean 900.0 -> -")) {
		t.Errorf("reversed diff did not render absent side as '-':\n%s", out)
	}
}

func TestUnionMerges(t *testing.T) {
	got := union([]string{"a", "c", "d"}, []string{"b", "c", "e"})
	want := []string{"a", "b", "c", "d", "e"}
	if len(got) != len(want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("union = %v, want %v", got, want)
		}
	}
	if out := union(nil, nil); len(out) != 0 {
		t.Fatalf("union(nil,nil) = %v", out)
	}
}

// captureStdout redirects os.Stdout around fn. The summary/diff helpers
// print straight to stdout like the command does.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		done <- buf.Bytes()
	}()
	fn()
	os.Stdout = old
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return <-done
}
