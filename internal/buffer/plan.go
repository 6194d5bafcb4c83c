// The write-back planner. The paper's cost model (§4.1) charges every I/O
// call a full seek, so a write-back of k physically adjacent dirty pages
// costs k seeks when issued page-at-a-time but only one when issued as a
// single run. The planner turns an unordered set of dirty page addresses
// into the ascending-address ("elevator") sequence of maximal adjacent
// runs, capped at the pool's run length. It is pure: no clock, no
// randomness, no I/O.
package buffer

import (
	"sort"

	"lobstore/internal/disk"
)

// run is one planned I/O call: Pages physically adjacent pages starting at
// Addr.
type run struct {
	Addr  disk.Addr
	Pages int
}

// sortAddrs orders addrs ascending by (area, page) — one elevator sweep
// across the disk with all areas laid out consecutively, the order that
// minimizes head travel for a batch of independent writes.
func sortAddrs(addrs []disk.Addr) {
	sort.Slice(addrs, func(i, j int) bool {
		if addrs[i].Area != addrs[j].Area {
			return addrs[i].Area < addrs[j].Area
		}
		return addrs[i].Page < addrs[j].Page
	})
}

// plan sorts addrs into elevator order (in place) and merges physically
// adjacent pages of the same area into runs of at most maxRun pages;
// maxRun <= 0 leaves run length unbounded. Addresses must be distinct.
// The planned runs are appended to dst, which may be nil; the extended
// slice is returned, so callers can reuse scratch across calls.
func plan(addrs []disk.Addr, maxRun int, dst []run) []run {
	sortAddrs(addrs)
	for _, a := range addrs {
		if n := len(dst); n > 0 {
			last := &dst[n-1]
			if last.Addr.Area == a.Area &&
				int64(last.Addr.Page)+int64(last.Pages) == int64(a.Page) &&
				(maxRun <= 0 || last.Pages < maxRun) {
				last.Pages++
				continue
			}
		}
		dst = append(dst, run{Addr: a, Pages: 1})
	}
	return dst
}
