//go:build linux

package filevol

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"lobstore/internal/disk"
)

// seekHole is Linux's SEEK_HOLE whence: lseek to the first hole at or
// after the offset, or to the file's end when there is none.
const seekHole = 4

// TestFilesStayDense: writes that start past a file's end leave no hole
// below it — lseek(SEEK_HOLE) from 0 lands on the end — and the filled
// gaps read as zeros through ReadRun and View, before and after a reopen.
// On a file system without hole support SEEK_HOLE always returns the end,
// so there the test only checks the bytes.
func TestFilesStayDense(t *testing.T) {
	dir := t.TempDir()
	const npages = 64
	written := map[int]byte{0: 0xA0, 40: 0xB4, 20: 0xC2}

	check := func(v *Volume) {
		t.Helper()
		f, err := os.Open(filepath.Join(dir, "area-0.lob"))
		if err != nil {
			t.Fatalf("open area file: %v", err)
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			t.Fatalf("stat: %v", err)
		}
		if want := int64(41 * pageSize); st.Size() != want {
			t.Fatalf("file size %d, want %d", st.Size(), want)
		}
		hole, err := f.Seek(0, seekHole)
		if err != nil {
			t.Fatalf("lseek SEEK_HOLE: %v", err)
		}
		if hole != st.Size() {
			t.Fatalf("first hole at %d, below the file's end %d", hole, st.Size())
		}
		for p := 0; p < npages; p++ {
			want := page(written[p])
			if got := readPage(t, v, p); !bytes.Equal(got, want) {
				t.Fatalf("ReadRun page %d holds %#x, want %#x", p, got[0], want[0])
			}
			wantView(t, v, disk.Addr{Page: disk.PageID(p)}, 0, want)
		}
	}

	v := openTest(t, dir)
	if _, err := v.AddArea(npages); err != nil {
		t.Fatalf("AddArea: %v", err)
	}
	for _, p := range []int{0, 40, 20} {
		if err := v.WriteRun(disk.Addr{Page: disk.PageID(p)}, 1, page(written[p])); err != nil {
			t.Fatalf("WriteRun page %d: %v", p, err)
		}
	}
	check(v)
	if err := v.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	v = openTest(t, dir)
	defer v.Close()
	if _, err := v.AddArea(npages); err != nil {
		t.Fatalf("reopen AddArea: %v", err)
	}
	check(v)
}
