// Package postree implements the positional count/pointer tree used by both
// ESM and EOS to index the segments of a large object (§2.1, §2.3).
//
// Each node holds a sequence of (count, pointer) pairs. Pointers are page
// numbers; the count of pair i is the cumulative number of bytes stored in
// the subtrees rooted at children 0..i, so the count of the rightmost pair
// of the root is the object size. In level-0 nodes the "children" are the
// data segments themselves.
//
// Counts and pointers are 4 bytes each, exactly as in the paper: with 4 KB
// pages the root holds up to 507 pairs (an object header precedes the node
// on the root page) and interior nodes hold up to 511.
//
// Internal nodes are required to be at least half full. All updates to
// index pages except the root are shadowed: at the end of each operation a
// dirty index page is written to a freshly allocated page, its parent's
// pointer is swung, and the old page is freed; the root is updated in place
// (§3.3).
package postree

import (
	"encoding/binary"
	"fmt"
)

const (
	// nodeHdrSize is the per-node header: level(1) flags(1) npairs(2) pad(4).
	nodeHdrSize = 8
	// rootHdrSize is the object header preceding the node header on the
	// root page: magic(4) version(2) pad(2) annotation(24). The annotation
	// bytes belong to the manager owning the tree (ESM and EOS persist
	// their configuration there so objects can be reopened).
	rootHdrSize = 32
	// annotationOff and AnnotationSize delimit the manager-owned region.
	annotationOff = 8
	// AnnotationSize is the number of root-header bytes available to the
	// tree's owner.
	AnnotationSize = rootHdrSize - annotationOff

	pairSize = 8

	magic   = 0x4C4F4254 // "LOBT"
	version = 1
)

// Entry describes one data segment referenced from a level-0 node: the
// number of object bytes it holds and the first page of the segment in the
// leaf area.
type Entry struct {
	Bytes int64
	Ptr   uint32
}

// node is a view over the pair region of an index page.
type node struct {
	data []byte // starts at the node header
	cap  int    // maximum number of pairs
}

// wrapNode views page as an index node. Root pages carry the extra object
// header before the node header.
func wrapNode(page []byte, isRoot bool) node {
	off := 0
	if isRoot {
		off = rootHdrSize
	}
	return node{
		data: page[off:],
		cap:  (len(page) - off - nodeHdrSize) / pairSize,
	}
}

// initRootPage writes the object header onto a fresh root page.
func initRootPage(page []byte) {
	binary.LittleEndian.PutUint32(page[0:], magic)
	binary.LittleEndian.PutUint16(page[4:], version)
}

// checkRootPage validates the object header of an existing root page.
func checkRootPage(page []byte) error {
	if binary.LittleEndian.Uint32(page[0:]) != magic {
		return fmt.Errorf("postree: bad magic on root page")
	}
	if v := binary.LittleEndian.Uint16(page[4:]); v != version {
		return fmt.Errorf("postree: unsupported version %d", v)
	}
	return nil
}

func (n node) level() int  { return int(n.data[0]) }
func (n node) npairs() int { return int(binary.LittleEndian.Uint16(n.data[2:])) }

func (n node) setLevel(l int) { n.data[0] = byte(l) }
func (n node) setNPairs(c int) {
	binary.LittleEndian.PutUint16(n.data[2:], uint16(c))
}

func (n node) pairOff(i int) int { return nodeHdrSize + i*pairSize }

// count returns the cumulative byte count of pair i; count(-1) is 0 by the
// paper's convention.
func (n node) count(i int) int64 {
	if i < 0 {
		return 0
	}
	return int64(binary.LittleEndian.Uint32(n.data[n.pairOff(i):]))
}

// bytes returns the number of bytes stored under child i alone.
func (n node) bytes(i int) int64 { return n.count(i) - n.count(i-1) }

func (n node) ptr(i int) uint32 {
	return binary.LittleEndian.Uint32(n.data[n.pairOff(i)+4:])
}

func (n node) setCount(i int, c int64) {
	binary.LittleEndian.PutUint32(n.data[n.pairOff(i):], uint32(c))
}

func (n node) setPtr(i int, p uint32) {
	binary.LittleEndian.PutUint32(n.data[n.pairOff(i)+4:], p)
}

// total returns the number of bytes stored under the whole node.
func (n node) total() int64 { return n.count(n.npairs() - 1) }

// findChild returns the index of the child covering byte offset pos
// (0 ≤ pos < total) by binary search over the cumulative counts.
func (n node) findChild(pos int64) int {
	lo, hi := 0, n.npairs()-1
	for lo < hi {
		mid := (lo + hi) / 2
		if pos < n.count(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// entries copies all pairs out as Entry values (per-child byte widths).
func (n node) entries() []Entry {
	out := make([]Entry, n.npairs())
	prev := int64(0)
	for i := range out {
		c := n.count(i)
		out[i] = Entry{Bytes: c - prev, Ptr: n.ptr(i)}
		prev = c
	}
	return out
}

// setEntries replaces the node's pairs with the given entries.
func (n node) setEntries(es []Entry) {
	if len(es) > n.cap {
		panic(fmt.Sprintf("postree: %d entries exceed node capacity %d", len(es), n.cap))
	}
	run := int64(0)
	for i, e := range es {
		run += e.Bytes
		n.setCount(i, run)
		n.setPtr(i, e.Ptr)
	}
	n.setNPairs(len(es))
}

// replacePairs substitutes the drop pairs starting at index i with the
// given entries, shifting the remainder within the page. The caller must
// ensure capacity.
func (n node) replacePairs(i, drop int, es []Entry) {
	np := n.npairs()
	newN := np - drop + len(es)
	if newN > n.cap {
		panic(fmt.Sprintf("postree: %d entries exceed node capacity %d", newN, n.cap))
	}
	base := n.count(i - 1)
	delta := sumEntries(es) - (n.count(i+drop-1) - base)
	copy(n.data[n.pairOff(i+len(es)):], n.data[n.pairOff(i+drop):n.pairOff(np)])
	for k, e := range es {
		base += e.Bytes
		n.setCount(i+k, base)
		n.setPtr(i+k, e.Ptr)
	}
	n.setNPairs(newN)
	n.addToCounts(i+len(es), delta)
}

// addToCounts adds delta to the cumulative counts of pairs i..npairs-1,
// reflecting a size change in child i's subtree.
func (n node) addToCounts(i int, delta int64) {
	for j := i; j < n.npairs(); j++ {
		n.setCount(j, n.count(j)+delta)
	}
}
