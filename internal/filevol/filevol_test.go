package filevol

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lobstore/internal/disk"
	"lobstore/internal/sim"
)

// 512 is the smallest page size the simulation cost model accepts, so the
// decorator test can share it.
const pageSize = 512

func newDiskOn(t *testing.T, v *Volume) *disk.Disk {
	t.Helper()
	model := sim.CostModel{PageSize: pageSize, SeekTime: sim.Millisecond, TransferPerKB: sim.Millisecond}
	d, err := disk.New(model, sim.NewClock(), disk.WithVolume(v))
	if err != nil {
		t.Fatalf("disk.New: %v", err)
	}
	return d
}

func openTest(t *testing.T, dir string, opts ...Option) *Volume {
	t.Helper()
	v, err := Open(dir, pageSize, opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return v
}

func page(fill byte) []byte {
	p := make([]byte, pageSize)
	for i := range p {
		p[i] = fill
	}
	return p
}

func TestReadWriteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	v := openTest(t, dir)
	if _, err := v.AddArea(64); err != nil {
		t.Fatalf("AddArea: %v", err)
	}

	run := append(page(0xAA), page(0xBB)...)
	addr := disk.Addr{Area: 0, Page: 7}
	if err := v.WriteRun(addr, 2, run); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	got := make([]byte, 2*pageSize)
	if err := v.ReadRun(addr, 2, got); err != nil {
		t.Fatalf("ReadRun: %v", err)
	}
	if !bytes.Equal(got, run) {
		t.Fatalf("read back different bytes")
	}

	// Pages never written — including past EOF — read as zeros.
	if err := v.ReadRun(disk.Addr{Area: 0, Page: 40}, 1, got[:pageSize]); err != nil {
		t.Fatalf("ReadRun past EOF: %v", err)
	}
	if !bytes.Equal(got[:pageSize], page(0)) {
		t.Fatalf("unwritten page not zero")
	}

	if err := v.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// View is byte-granular on both backends: a range crosses page
// boundaries, bytes past what was written read as zeros, and a range past
// the area's end is an error. The file backend lends its views from a
// mapping made by the first View, so the test also views bytes written
// after that, a gap a write past the end filled with zeros, and the same
// bytes after a reopen.
func TestView(t *testing.T) {
	dir := t.TempDir()
	aa, bb, cc, dd := page(0xAA), page(0xBB), page(0xCC), page(0xDD)
	for _, v := range []disk.Volume{openTest(t, dir), disk.NewMemVolume(pageSize)} {
		if _, err := v.AddArea(16); err != nil {
			t.Fatalf("AddArea: %v", err)
		}
		if err := v.WriteRun(disk.Addr{Page: 7}, 2, append(aa, bb...)); err != nil {
			t.Fatalf("WriteRun: %v", err)
		}
		wantView(t, v, disk.Addr{Page: 7}, pageSize-12, append(aa[:12:12], bb[:18]...))
		wantView(t, v, disk.Addr{Page: 8}, pageSize-12, append(bb[:12:12], make([]byte, 28)...))
		if _, err := v.View(disk.Addr{Page: 15}, pageSize-12, 40, nil); err == nil {
			t.Fatalf("%T: View past the area's end succeeded", v)
		}

		// Written after the first View mapped the area.
		if err := v.WriteRun(disk.Addr{Page: 9}, 1, cc); err != nil {
			t.Fatalf("WriteRun: %v", err)
		}
		wantView(t, v, disk.Addr{Page: 8}, 0, append(bb[:pageSize:pageSize], cc...))

		// Written past the end: the gap below it reads as zeros.
		if err := v.WriteRun(disk.Addr{Page: 12}, 1, dd); err != nil {
			t.Fatalf("WriteRun: %v", err)
		}
		wantView(t, v, disk.Addr{Page: 9}, pageSize/2, append(append(cc[pageSize/2:pageSize:pageSize], make([]byte, 2*pageSize)...), dd...))
		if err := v.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}

	v := openTest(t, dir)
	if _, err := v.AddArea(16); err != nil {
		t.Fatalf("reopen AddArea: %v", err)
	}
	wantView(t, v, disk.Addr{Page: 7}, 0, bytes.Join([][]byte{aa, bb, cc, make([]byte, 2*pageSize), dd}, nil))
	if err := v.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// wantView fails the test unless the view of len(want) bytes at off past
// addr reads want.
func wantView(t *testing.T, v disk.Volume, addr disk.Addr, off int64, want []byte) {
	t.Helper()
	views, err := v.View(addr, off, int64(len(want)), nil)
	if err != nil {
		t.Fatalf("%T: View %v+%d: %v", v, addr, off, err)
	}
	if got := bytes.Join(views, nil); !bytes.Equal(got, want) {
		t.Fatalf("%T: View %v+%d read %x, want %x", v, addr, off, got, want)
	}
}

func TestPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	v := openTest(t, dir)
	if _, err := v.AddArea(16); err != nil {
		t.Fatalf("AddArea: %v", err)
	}
	if err := v.WriteRun(disk.Addr{Area: 0, Page: 3}, 1, page(0x5C)); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	if err := v.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	v2 := openTest(t, dir)
	if _, err := v2.AddArea(16); err != nil {
		t.Fatalf("reopen AddArea: %v", err)
	}
	got := make([]byte, pageSize)
	if err := v2.ReadRun(disk.Addr{Area: 0, Page: 3}, 1, got); err != nil {
		t.Fatalf("ReadRun: %v", err)
	}
	if !bytes.Equal(got, page(0x5C)) {
		t.Fatalf("bytes did not survive reopen")
	}
	if err := v2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestPowerCutDropsUnsyncedWrites(t *testing.T) {
	dir := t.TempDir()
	v := openTest(t, dir, WithCrashLog())
	if _, err := v.AddArea(32); err != nil {
		t.Fatalf("AddArea: %v", err)
	}

	// Barrier interval 1: durable state.
	if err := v.WriteRun(disk.Addr{Area: 0, Page: 0}, 1, page(0x11)); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	if err := v.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	// Barrier interval 2: overwrite page 0, append page 5 — then the cut.
	if err := v.FailAtBarrier(1); err != nil {
		t.Fatalf("FailAtBarrier: %v", err)
	}
	if err := v.WriteRun(disk.Addr{Area: 0, Page: 0}, 1, page(0x22)); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	if err := v.WriteRun(disk.Addr{Area: 0, Page: 5}, 1, page(0x33)); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	if err := v.Sync(); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("Sync = %v, want ErrPowerCut", err)
	}

	// The dead volume fails everything, but Close still succeeds.
	if err := v.ReadRun(disk.Addr{Area: 0, Page: 0}, 1, make([]byte, pageSize)); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("read on dead volume = %v, want ErrPowerCut", err)
	}
	if err := v.Close(); err != nil {
		t.Fatalf("Close after power cut: %v", err)
	}

	// Reopen: page 0 holds the last synced bytes, page 5 never existed.
	v2 := openTest(t, dir)
	if _, err := v2.AddArea(32); err != nil {
		t.Fatalf("reopen AddArea: %v", err)
	}
	got := make([]byte, pageSize)
	if err := v2.ReadRun(disk.Addr{Area: 0, Page: 0}, 1, got); err != nil {
		t.Fatalf("ReadRun: %v", err)
	}
	if !bytes.Equal(got, page(0x11)) {
		t.Fatalf("page 0 not rolled back to synced bytes")
	}
	if err := v2.ReadRun(disk.Addr{Area: 0, Page: 5}, 1, got); err != nil {
		t.Fatalf("ReadRun: %v", err)
	}
	if !bytes.Equal(got, page(0)) {
		t.Fatalf("un-synced appended page survived the power cut")
	}
	st, err := os.Stat(filepath.Join(dir, "area-0.lob"))
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if st.Size() != pageSize {
		t.Fatalf("file size %d after rollback, want %d", st.Size(), pageSize)
	}
	if err := v2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestPowerCutRollsBackFill: a write past the file's end zero-fills the
// gap below it, and a power cut at the next barrier rolls the fill back
// with the write — the file's size and bytes are those of the last
// completed barrier.
func TestPowerCutRollsBackFill(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "area-0.lob")
	v := openTest(t, dir, WithCrashLog())
	if _, err := v.AddArea(32); err != nil {
		t.Fatalf("AddArea: %v", err)
	}
	if err := v.WriteRun(disk.Addr{Page: 0}, 2, append(page(0x11), page(0x12)...)); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	if err := v.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read area file: %v", err)
	}

	// Page 9 starts past the end: pages 2-8 are filled, then written.
	if err := v.WriteRun(disk.Addr{Page: 9}, 1, page(0x19)); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != 10*pageSize {
		t.Fatalf("stat after the fill = %v, %v; want %d bytes", st, err, 10*pageSize)
	}
	if err := v.FailAtBarrier(1); err != nil {
		t.Fatalf("FailAtBarrier: %v", err)
	}
	if err := v.Sync(); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("Sync = %v, want ErrPowerCut", err)
	}
	if err := v.Close(); err != nil {
		t.Fatalf("Close after power cut: %v", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read area file: %v", err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("after the cut the file holds %d bytes, want the %d of the last barrier", len(after), len(before))
	}
}

func TestSyncAlwaysMakesBarrierIntervalDurable(t *testing.T) {
	dir := t.TempDir()
	v := openTest(t, dir, WithCrashLog(), WithPolicy(SyncAlways))
	if _, err := v.AddArea(8); err != nil {
		t.Fatalf("AddArea: %v", err)
	}
	if err := v.FailAtBarrier(1); err != nil {
		t.Fatalf("FailAtBarrier: %v", err)
	}
	// Under always the write itself is the durability point: the barrier's
	// power cut has nothing to drop.
	if err := v.WriteRun(disk.Addr{Area: 0, Page: 2}, 1, page(0x7E)); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	if err := v.Sync(); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("Sync = %v, want ErrPowerCut", err)
	}
	if err := v.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	v2 := openTest(t, dir)
	if _, err := v2.AddArea(8); err != nil {
		t.Fatalf("reopen AddArea: %v", err)
	}
	got := make([]byte, pageSize)
	if err := v2.ReadRun(disk.Addr{Area: 0, Page: 2}, 1, got); err != nil {
		t.Fatalf("ReadRun: %v", err)
	}
	if !bytes.Equal(got, page(0x7E)) {
		t.Fatalf("sync-always write lost at power cut")
	}
	if err := v2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	dir := t.TempDir()
	v := openTest(t, dir)
	if _, err := v.AddArea(8); err != nil {
		t.Fatalf("AddArea: %v", err)
	}
	if err := v.WriteRun(disk.Addr{Area: 0, Page: 0}, 1, page(0x42)); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	if err := v.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	ro := openTest(t, dir, ReadOnly())
	if _, err := ro.AddArea(8); err != nil {
		t.Fatalf("read-only AddArea: %v", err)
	}
	if err := ro.WriteRun(disk.Addr{Area: 0, Page: 1}, 1, page(1)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("WriteRun = %v, want ErrReadOnly", err)
	}
	got := make([]byte, pageSize)
	if err := ro.ReadRun(disk.Addr{Area: 0, Page: 0}, 1, got); err != nil {
		t.Fatalf("ReadRun: %v", err)
	}
	if !bytes.Equal(got, page(0x42)) {
		t.Fatalf("read-only volume read wrong bytes")
	}
	if err := ro.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestPastEndReadsZeros: bytes past the file's end hold nothing on disk
// and read as zeros, through ReadRun and through View, also for a range
// that straddles the end.
func TestPastEndReadsZeros(t *testing.T) {
	dir := t.TempDir()
	v := openTest(t, dir)
	if _, err := v.AddArea(16); err != nil {
		t.Fatalf("AddArea: %v", err)
	}
	if err := v.WriteRun(disk.Addr{Page: 0}, 1, page(0x3C)); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	st, err := os.Stat(filepath.Join(dir, "area-0.lob"))
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if st.Size() != pageSize {
		t.Fatalf("file size %d, want %d", st.Size(), pageSize)
	}
	want := append(page(0x3C), make([]byte, 2*pageSize)...)
	got := make([]byte, 3*pageSize)
	if err := v.ReadRun(disk.Addr{Page: 0}, 3, got); err != nil {
		t.Fatalf("ReadRun: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ReadRun across the end read non-zero bytes past it")
	}
	wantView(t, v, disk.Addr{Page: 0}, pageSize/2, want[pageSize/2:])
	wantView(t, v, disk.Addr{Page: 9}, 0, make([]byte, 2*pageSize))
	if err := v.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestUnderDiskDecorator(t *testing.T) {
	dir := t.TempDir()
	v := openTest(t, dir)
	d := newDiskOn(t, v)
	id, err := d.AddArea(32)
	if err != nil {
		t.Fatalf("AddArea: %v", err)
	}
	buf := page(0x99)
	if err := d.Write(disk.Addr{Area: id, Page: 4}, 1, buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := d.Barrier(); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	got := make([]byte, pageSize)
	if err := d.Read(disk.Addr{Area: id, Page: 4}, 1, got); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatalf("decorated read returned wrong bytes")
	}
	if s := d.Stats(); s.WriteCalls != 1 || s.ReadCalls != 1 {
		t.Fatalf("stats not charged: %+v", s)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
