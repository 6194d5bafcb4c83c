package postree

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func makeNode(isRoot bool) node {
	page := make([]byte, 4096)
	if isRoot {
		initRootPage(page)
	}
	return wrapNode(page, isRoot)
}

// TestPaperCapacities pins the exact pair capacities of §4.1: 507 pairs in
// the root, 511 in interior pages (4-byte counts + 4-byte pointers on 4 KB
// pages).
func TestPaperCapacities(t *testing.T) {
	if got := makeNode(true).cap; got != 507 {
		t.Errorf("root capacity %d, want 507", got)
	}
	if got := makeNode(false).cap; got != 511 {
		t.Errorf("interior capacity %d, want 511", got)
	}
}

// TestPaperFigure1Arithmetic reproduces the worked example of Figure 1: an
// 1830-byte object whose root children index 900 and 930 bytes, the right
// child holding segments of 400, 250 and 280 bytes.
func TestPaperFigure1Arithmetic(t *testing.T) {
	right := makeNode(false)
	right.setLevel(0)
	right.setEntries([]Entry{{Bytes: 400, Ptr: 1}, {Bytes: 250, Ptr: 2}, {Bytes: 280, Ptr: 3}})
	if right.total() != 930 {
		t.Fatalf("right child total %d, want 930", right.total())
	}
	if right.count(0) != 400 || right.count(1) != 650 || right.count(2) != 930 {
		t.Fatalf("cumulative counts %d %d %d", right.count(0), right.count(1), right.count(2))
	}
	root := makeNode(true)
	root.setLevel(1)
	root.setEntries([]Entry{{Bytes: 900, Ptr: 10}, {Bytes: 930, Ptr: 11}})
	if root.total() != 1830 {
		t.Fatalf("object size %d, want 1830", root.total())
	}
	// Byte 650 of the right subtree lives in its second segment
	// (bytes 400..650 → index 1 covers [400,650)).
	if i := right.findChild(649); i != 1 {
		t.Fatalf("byte 649 found in child %d, want 1", i)
	}
	if i := right.findChild(650); i != 2 {
		t.Fatalf("byte 650 found in child %d, want 2", i)
	}
}

// Property: setEntries/entries round-trips any entry sequence.
func TestEntriesRoundTripQuick(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := makeNode(false)
		count := int(nRaw) % n.cap
		es := make([]Entry, count)
		for i := range es {
			es[i] = Entry{Bytes: int64(1 + rng.Intn(1_000_000)), Ptr: rng.Uint32()}
		}
		n.setEntries(es)
		got := n.entries()
		if len(got) != len(es) {
			return false
		}
		for i := range es {
			if got[i] != es[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: findChild agrees with a linear scan over cumulative counts.
func TestFindChildQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := makeNode(false)
		es := make([]Entry, 1+rng.Intn(100))
		for i := range es {
			es[i] = Entry{Bytes: int64(1 + rng.Intn(5000)), Ptr: uint32(i)}
		}
		n.setEntries(es)
		for trial := 0; trial < 20; trial++ {
			pos := rng.Int63n(n.total())
			got := n.findChild(pos)
			want := 0
			for n.count(want) <= pos {
				want++
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: replacePairs preserves surrounding entries, and the page it
// leaves is byte for byte the one rewriting every pair would leave.
func TestReplacePairsQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := makeNode(false)
		orig := make([]Entry, 2+rng.Intn(50))
		for i := range orig {
			orig[i] = Entry{Bytes: int64(1 + rng.Intn(1000)), Ptr: uint32(i + 1)}
		}
		n.setEntries(orig)
		i := rng.Intn(len(orig))
		drop := rng.Intn(min(3, len(orig)-i) + 1)
		repl := make([]Entry, rng.Intn(4))
		for k := range repl {
			repl[k] = Entry{Bytes: int64(1 + rng.Intn(1000)), Ptr: uint32(1000 + k)}
		}
		want := append(append(append([]Entry{}, orig[:i]...), repl...), orig[i+drop:]...)
		ref := node{data: append([]byte(nil), n.data...), cap: n.cap}
		ref.setEntries(want)
		n.replacePairs(i, drop, repl)
		got := n.entries()
		if len(got) != len(want) {
			return false
		}
		for k := range want {
			if got[k] != want[k] {
				return false
			}
		}
		return bytes.Equal(n.data, ref.data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: splitGroups partitions evenly, respecting capacity and minimum
// fill.
func TestSplitGroupsQuick(t *testing.T) {
	const cap = 511
	prop := func(nRaw uint16) bool {
		n := int(nRaw)%2000 + 1
		es := make([]Entry, n)
		for i := range es {
			es[i] = Entry{Bytes: 1, Ptr: uint32(i)}
		}
		groups := splitGroups(es, cap)
		total := 0
		for _, g := range groups {
			if len(g) > cap {
				return false
			}
			if len(groups) > 1 && len(g) < cap/2 {
				return false
			}
			total += len(g)
		}
		return total == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAddToCounts(t *testing.T) {
	n := makeNode(false)
	n.setEntries([]Entry{{Bytes: 10, Ptr: 1}, {Bytes: 20, Ptr: 2}, {Bytes: 30, Ptr: 3}})
	n.addToCounts(1, 5)
	if n.bytes(0) != 10 || n.bytes(1) != 25 || n.bytes(2) != 30 {
		t.Fatalf("bytes after delta: %d %d %d", n.bytes(0), n.bytes(1), n.bytes(2))
	}
	if n.total() != 65 {
		t.Fatalf("total %d", n.total())
	}
}

func TestAnnotationRoundTrip(t *testing.T) {
	page := make([]byte, 4096)
	initRootPage(page)
	if err := checkRootPage(page); err != nil {
		t.Fatal(err)
	}
	page[0] = 0
	if err := checkRootPage(page); err == nil {
		t.Fatal("corrupted magic accepted")
	}
}
