package engine

import (
	"fmt"

	"lobstore/internal/core"
	"lobstore/internal/disk"
)

// Handle is a core.Object whose operations run through the engine: every
// mutation takes the object's FIFO lock and runs under the store mutex
// with a private OpState; a read holds both only to pin the extents it
// covers. Handles are safe for concurrent use; per-object FIFO ordering is
// the engine's fairness guarantee.
type Handle struct {
	e     *Engine
	inner Object
	root  disk.Addr
}

var _ core.Object = (*Handle)(nil)

// Root returns the object's root/descriptor address.
func (h *Handle) Root() disk.Addr { return h.root }

// Engine returns the engine the handle's operations run through.
func (h *Handle) Engine() *Engine { return h.e }

func (h *Handle) do(f func() error) error { return h.e.Do(h.root, f) }

func (h *Handle) Size() int64 {
	var size int64
	if err := h.do(func() error {
		size = h.inner.Size()
		return nil
	}); err != nil {
		return 0
	}
	return size
}

func (h *Handle) Append(data []byte) error {
	return h.do(func() error { return h.inner.Append(data) })
}

// Pin resolves and pins the committed image of [off, off+n); read it with
// Pin.Read or Pin.Views and give it back with Release.
func (h *Handle) Pin(off, n int64) (*Pin, error) { return h.e.pin(h.root, h.inner, off, n) }

// Read is the serving hot path and must not allocate: pins and view lists
// are pooled, and Do and Run only call their func argument, so the
// resolve closure stays on the stack (TestHandleReadZeroAllocs).
func (h *Handle) Read(off int64, dst []byte) error {
	p, err := h.Pin(off, int64(len(dst)))
	if err != nil {
		return err
	}
	err = p.Read(off, dst)
	if rerr := p.Release(); err == nil {
		err = rerr
	}
	return err
}

func (h *Handle) Replace(off int64, data []byte) error {
	return h.do(func() error { return h.inner.Replace(off, data) })
}

func (h *Handle) Insert(off int64, data []byte) error {
	return h.do(func() error { return h.inner.Insert(off, data) })
}

func (h *Handle) Delete(off, n int64) error {
	return h.do(func() error { return h.inner.Delete(off, n) })
}

func (h *Handle) Utilization() core.Utilization {
	var u core.Utilization
	if err := h.do(func() error {
		u = h.inner.Utilization()
		return nil
	}); err != nil {
		return core.Utilization{}
	}
	return u
}

func (h *Handle) Close() error {
	return h.do(func() error { return h.inner.Close() })
}

func (h *Handle) Destroy() error {
	return h.do(func() error { return h.inner.Destroy() })
}

// Layout exposes the physical layout when the wrapped manager supports
// inspection.
func (h *Handle) Layout() (core.Layout, error) {
	var l core.Layout
	err := h.do(func() error {
		insp, ok := h.inner.(core.Inspector)
		if !ok {
			return fmt.Errorf("engine: object %v does not support layout inspection", h.root)
		}
		var err error
		l, err = insp.Layout()
		return err
	})
	return l, err
}
