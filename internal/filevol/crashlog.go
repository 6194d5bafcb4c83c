package filevol

import (
	"errors"
	"fmt"
	"io"

	"lobstore/internal/disk"
)

// crashLog records what a power cut would un-do: for every page written
// since the last completed durability barrier, the page's pre-image (or the
// fact that the page did not exist), plus each touched file's size at its
// first un-synced write. Rolling the log back leaves the files exactly as
// if the kernel had never flushed any of those writes — the pessimal but
// legal crash outcome the recovery protocol must survive.
//
// Only the first write of a page per generation is logged: later writes to
// the same page are overwriting data that is already doomed.
//
// The log keeps two generations because the commit pipeline flushes with
// its mutex dropped: a write landing while a flush is in flight is NOT
// covered by that flush. Sealing a flush moves everything captured so far
// into the sealed generation and starts an empty current one; the flush's
// success drops the sealed generation only, so a cut at the next barrier
// still rolls the mid-flush writes back — to the bytes the sealed flush
// made durable, which is exactly what their pre-images hold.
type crashLog struct {
	cur    logGen // captured since the last seal
	sealed logGen // captured before the flush in flight was sealed
}

// logGen is one generation of pre-images.
type logGen struct {
	pages map[pageKey][]byte // nil slice: page was past EOF before the write
	sizes map[disk.AreaID]sizeEntry
}

type pageKey struct {
	area disk.AreaID
	off  int64
}

type sizeEntry struct {
	a    *areaFile
	size int64
}

func newLogGen() logGen {
	return logGen{
		pages: make(map[pageKey][]byte),
		sizes: make(map[disk.AreaID]sizeEntry),
	}
}

func newCrashLog() *crashLog {
	return &crashLog{cur: newLogGen(), sealed: newLogGen()}
}

// beforeWrite captures the pre-image of the n bytes at off in area (page
// granular: n is a multiple of pageSize) before they are overwritten.
func (l *crashLog) beforeWrite(area disk.AreaID, a *areaFile, off int64, n, pageSize int) error {
	g := l.cur
	if _, seen := g.sizes[area]; !seen {
		st, err := a.f.Stat()
		if err != nil {
			return fmt.Errorf("filevol: crash log stat area %d: %w", area, err)
		}
		g.sizes[area] = sizeEntry{a: a, size: st.Size()}
	}
	oldSize := g.sizes[area].size
	for p := int64(0); p < int64(n); p += int64(pageSize) {
		k := pageKey{area: area, off: off + p}
		if _, seen := g.pages[k]; seen {
			continue
		}
		if k.off >= oldSize {
			// The page is past the pre-barrier EOF; the size rollback's
			// truncate removes it, no bytes to keep.
			g.pages[k] = nil
			continue
		}
		img := make([]byte, pageSize)
		m, err := a.f.ReadAt(img, k.off)
		if err != nil && !errors.Is(err, io.EOF) {
			return fmt.Errorf("filevol: crash log read area %d off %d: %w", area, k.off, err)
		}
		clear(img[m:])
		g.pages[k] = img
	}
	return nil
}

// seal starts a new generation: everything captured so far belongs to the
// flush about to run. The sealed generation is empty here — flushes are
// serial, a successful one dropped it and a failed one is terminal — so
// the swap recycles its maps.
func (l *crashLog) seal() { l.cur, l.sealed = l.sealed, l.cur }

// flushed drops the sealed generation: the flush that covered it succeeded.
func (l *crashLog) flushed() { l.sealed.clear() }

// clear drops the log: everything recorded is now durable.
func (l *crashLog) clear() {
	l.cur.clear()
	l.sealed.clear()
}

func (g logGen) clear() {
	clear(g.pages)
	clear(g.sizes)
}

// rollback restores every logged pre-image and truncates each touched file
// back to its pre-barrier size, then clears the log. A cut only ever fires
// with no flush in flight, when the sealed generation is empty; it is
// still walked — newest generation first, so the older image of a page or
// size in both lands last — to keep rollback total.
func (l *crashLog) rollback(v *Volume) error {
	for _, g := range [...]logGen{l.cur, l.sealed} {
		if err := g.rollback(v); err != nil {
			return err
		}
	}
	if err := l.fsyncAll(v); err != nil {
		return err
	}
	l.clear()
	return nil
}

func (g logGen) rollback(v *Volume) error {
	for k, img := range g.pages {
		if img == nil {
			continue // removed by the truncate below
		}
		a, err := v.area(k.area)
		if err != nil {
			return err
		}
		if _, err := a.f.WriteAt(img, k.off); err != nil {
			return fmt.Errorf("filevol: restoring area %d off %d: %w", k.area, k.off, err)
		}
	}
	for area, e := range g.sizes {
		if err := e.a.f.Truncate(e.size); err != nil {
			return fmt.Errorf("filevol: truncating area %d to %d: %w", area, e.size, err)
		}
		e.a.size = e.size
		// The rolled-back state must survive process death in a real crash
		// test, and a dirty flag would otherwise let Close fsync dropped
		// writes back in.
		e.a.dirty = false
	}
	return nil
}

// fsyncAll makes the rolled-back state itself durable so the "crashed"
// files can be reopened by a fresh process.
func (l *crashLog) fsyncAll(v *Volume) error {
	for id, a := range v.areas {
		if a.f == nil {
			continue
		}
		if err := a.f.Sync(); err != nil {
			return fmt.Errorf("filevol: sync rolled-back area %d: %w", id, err)
		}
	}
	return nil
}
