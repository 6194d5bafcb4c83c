package buffer

import (
	"math/rand"
	"reflect"
	"testing"

	"lobstore/internal/disk"
)

func addr(area disk.AreaID, page disk.PageID) disk.Addr {
	return disk.Addr{Area: area, Page: page}
}

func TestPlanMergesAdjacentPages(t *testing.T) {
	addrs := []disk.Addr{
		addr(0, 7), addr(0, 5), addr(0, 6), // one 3-page run, given shuffled
		addr(0, 9),               // gap: own run
		addr(1, 10), addr(1, 11), // different area: never merges with area 0
	}
	got := plan(addrs, 4, nil)
	want := []run{
		{addr(0, 5), 3},
		{addr(0, 9), 1},
		{addr(1, 10), 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("plan = %v, want %v", got, want)
	}
}

func TestPlanCapsRunLength(t *testing.T) {
	var addrs []disk.Addr
	for p := 0; p < 10; p++ {
		addrs = append(addrs, addr(0, disk.PageID(p)))
	}
	got := plan(addrs, 4, nil)
	want := []run{{addr(0, 0), 4}, {addr(0, 4), 4}, {addr(0, 8), 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("plan = %v, want %v", got, want)
	}
	unbounded := plan(addrs, 0, nil)
	if len(unbounded) != 1 || unbounded[0].Pages != 10 {
		t.Fatalf("unbounded plan = %v, want one 10-page run", unbounded)
	}
}

func TestPlanAppendsToDst(t *testing.T) {
	dst := []run{{addr(3, 1), 2}}
	got := plan([]disk.Addr{addr(0, 0)}, 4, dst)
	want := []run{{addr(3, 1), 2}, {addr(0, 0), 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("plan = %v, want %v", got, want)
	}
}

// TestPlanCoversEveryAddrOnce feeds random distinct address sets through the
// planner and checks the runs partition the input in ascending order.
func TestPlanCoversEveryAddrOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		seen := make(map[disk.Addr]bool)
		var addrs []disk.Addr
		for len(addrs) < 20 {
			a := addr(disk.AreaID(rng.Intn(3)), disk.PageID(rng.Intn(40)))
			if !seen[a] {
				seen[a] = true
				addrs = append(addrs, a)
			}
		}
		maxRun := 1 + rng.Intn(5)
		runs := plan(addrs, maxRun, nil)
		var prevEnd disk.Addr
		covered := 0
		for i, r := range runs {
			if r.Pages < 1 || r.Pages > maxRun {
				t.Fatalf("run %d length %d outside [1,%d]", i, r.Pages, maxRun)
			}
			if i > 0 && (r.Addr.Area < prevEnd.Area ||
				(r.Addr.Area == prevEnd.Area && r.Addr.Page < prevEnd.Page)) {
				t.Fatalf("run %d at %v starts before previous end %v", i, r.Addr, prevEnd)
			}
			for k := 0; k < r.Pages; k++ {
				if !seen[r.Addr.Add(k)] {
					t.Fatalf("run %d covers %v, not in input", i, r.Addr.Add(k))
				}
				covered++
			}
			prevEnd = r.Addr.Add(r.Pages)
		}
		if covered != len(addrs) {
			t.Fatalf("runs cover %d pages, input has %d", covered, len(addrs))
		}
	}
}
