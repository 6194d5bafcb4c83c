// Package lobtest provides a model-based test harness for large object
// managers: every operation applied to the object under test is mirrored on
// a plain in-memory byte slice, and the two are compared byte for byte.
package lobtest

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"lobstore/internal/core"
	"lobstore/internal/disk"
	"lobstore/internal/store"
)

// TestParams returns store parameters sized for unit tests: 4 KB pages but
// modest areas and segment sizes so allocator edge cases are reachable.
func TestParams() store.Params {
	p := store.DefaultParams()
	p.LeafAreaPages = 1 << 15
	p.MetaAreaPages = 1 << 13
	p.MaxOrder = 9
	return p
}

// NewStore opens a store for tests, failing the test on error.
func NewStore(t *testing.T, p store.Params) *store.Store {
	t.Helper()
	st, err := store.Open(p)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return st
}

// Harness pairs an object under test with its reference model.
type Harness struct {
	T      *testing.T
	Obj    core.Object
	Mirror []byte
	Rng    *rand.Rand
	// Check optionally validates implementation invariants after each
	// verified step.
	Check func() error

	fill byte // rolling fill byte so every write is distinguishable
}

// New creates a harness with a deterministic random source.
func New(t *testing.T, obj core.Object, seed int64) *Harness {
	return &Harness{T: t, Obj: obj, Rng: rand.New(rand.NewSource(seed))}
}

// Data produces n deterministic, distinguishable bytes.
func (h *Harness) Data(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		h.fill++
		out[i] = h.fill
	}
	return out
}

// Append appends n fresh bytes to both object and mirror.
func (h *Harness) Append(n int) {
	h.T.Helper()
	data := h.Data(n)
	if err := h.Obj.Append(data); err != nil {
		h.T.Fatalf("append %d bytes at size %d: %v", n, len(h.Mirror), err)
	}
	h.Mirror = append(h.Mirror, data...)
}

// Insert inserts n fresh bytes at off.
func (h *Harness) Insert(off int64, n int) {
	h.T.Helper()
	data := h.Data(n)
	if err := h.Obj.Insert(off, data); err != nil {
		h.T.Fatalf("insert %d bytes at %d (size %d): %v", n, off, len(h.Mirror), err)
	}
	h.Mirror = append(h.Mirror[:off:off], append(append([]byte{}, data...), h.Mirror[off:]...)...)
}

// Delete removes n bytes at off.
func (h *Harness) Delete(off, n int64) {
	h.T.Helper()
	if err := h.Obj.Delete(off, n); err != nil {
		h.T.Fatalf("delete [%d,+%d) (size %d): %v", off, n, len(h.Mirror), err)
	}
	h.Mirror = append(h.Mirror[:off:off], h.Mirror[off+n:]...)
}

// Replace overwrites n bytes at off.
func (h *Harness) Replace(off int64, n int) {
	h.T.Helper()
	data := h.Data(n)
	if err := h.Obj.Replace(off, data); err != nil {
		h.T.Fatalf("replace [%d,+%d) (size %d): %v", off, n, len(h.Mirror), err)
	}
	copy(h.Mirror[off:], data)
}

// ReadCheck reads [off, off+n) and compares with the mirror.
func (h *Harness) ReadCheck(off, n int64) {
	h.T.Helper()
	dst := make([]byte, n)
	if err := h.Obj.Read(off, dst); err != nil {
		h.T.Fatalf("read [%d,+%d) (size %d): %v", off, n, len(h.Mirror), err)
	}
	if !bytes.Equal(dst, h.Mirror[off:off+n]) {
		h.T.Fatalf("read [%d,+%d): content mismatch", off, n)
	}
}

// FullCheck verifies size, full content, custom invariants and, for an
// object that can describe its own space, checkViews.
func (h *Harness) FullCheck() {
	h.T.Helper()
	if got, want := h.Obj.Size(), int64(len(h.Mirror)); got != want {
		h.T.Fatalf("size = %d, want %d", got, want)
	}
	if len(h.Mirror) > 0 {
		h.ReadCheck(0, int64(len(h.Mirror)))
	}
	if h.Check != nil {
		if err := h.Check(); err != nil {
			h.T.Fatalf("invariants: %v", err)
		}
	}
	if v, ok := h.Obj.(views); ok {
		if err := checkViews(v); err != nil {
			h.T.Fatalf("views: %v", err)
		}
	}
}

// views is an object that describes its space three ways.
type views interface {
	core.Object
	core.Inspector
	core.PageMarker
}

// checkViews checks that an object's three descriptions of its own space
// agree: the Layout segments tile the object and hold exactly the data
// pages Utilization counts, both report the same index pages, and the
// pages MarkPages reports add up to Utilization's data plus index pages.
func checkViews(obj views) error {
	l, err := obj.Layout()
	if err != nil {
		return err
	}
	var bytes, pages int64
	for _, s := range l.Segments {
		bytes += s.Bytes
		pages += int64(s.Pages)
	}
	u := obj.Utilization()
	if bytes != obj.Size() {
		return fmt.Errorf("layout covers %d bytes, object has %d", bytes, obj.Size())
	}
	if pages != u.DataPages || int64(l.IndexPages) != u.IndexPages {
		return fmt.Errorf("layout has %d data + %d index pages, utilization %d + %d",
			pages, l.IndexPages, u.DataPages, u.IndexPages)
	}
	var marked int64
	err = obj.MarkPages(func(_ disk.Addr, n int) error {
		marked += int64(n)
		return nil
	})
	if err != nil {
		return err
	}
	if marked != u.DataPages+u.IndexPages {
		return fmt.Errorf("MarkPages reports %d pages, utilization %d data + %d index",
			marked, u.DataPages, u.IndexPages)
	}
	return nil
}

// RandomOps performs steps random operations, checking content
// periodically and at the end. maxOp bounds individual operation sizes.
func (h *Harness) RandomOps(steps, maxOp int) {
	h.T.Helper()
	for i := 0; i < steps; i++ {
		size := int64(len(h.Mirror))
		n := 1 + h.Rng.Intn(maxOp)
		switch op := h.Rng.Intn(10); {
		case size == 0 || op < 2:
			h.Append(n)
		case op < 4:
			h.Insert(h.Rng.Int63n(size+1), n)
		case op < 6:
			off := h.Rng.Int63n(size)
			d := int64(n)
			if off+d > size {
				d = size - off
			}
			h.Delete(off, d)
		case op < 8:
			off := h.Rng.Int63n(size)
			d := int64(n)
			if off+d > size {
				d = size - off
			}
			h.Replace(off, int(d))
		default:
			off := h.Rng.Int63n(size)
			d := int64(n)
			if off+d > size {
				d = size - off
			}
			h.ReadCheck(off, d)
		}
		if i%25 == 24 {
			h.FullCheck()
		}
	}
	h.FullCheck()
}
