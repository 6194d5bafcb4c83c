package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCheckRange(t *testing.T) {
	cases := []struct {
		size, off, n int64
		ok           bool
	}{
		{100, 0, 100, true},
		{100, 0, 0, true},
		{100, 100, 0, true},
		{100, 50, 50, true},
		{100, 50, 51, false},
		{100, -1, 10, false},
		{100, 0, -1, false},
		{100, 101, 0, false},
		{100, math.MaxInt64, 10, false},
		{0, 0, 0, true},
	}
	for _, c := range cases {
		err := CheckRange(c.size, c.off, c.n)
		if (err == nil) != c.ok {
			t.Errorf("CheckRange(%d,%d,%d) = %v, want ok=%v", c.size, c.off, c.n, err, c.ok)
		}
		if err != nil && !errors.Is(err, ErrOutOfRange) {
			t.Errorf("CheckRange error does not wrap ErrOutOfRange: %v", err)
		}
	}
}

// Property: valid ranges pass, shifted-out ranges fail.
func TestCheckRangeQuick(t *testing.T) {
	prop := func(sizeRaw, offRaw, nRaw uint16) bool {
		size := int64(sizeRaw)
		off := int64(offRaw) % (size + 1)
		n := int64(nRaw) % (size - off + 1)
		if CheckRange(size, off, n) != nil {
			return false
		}
		return CheckRange(size, off, size-off+1) != nil
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestUtilizationRatio(t *testing.T) {
	u := Utilization{ObjectBytes: 4096, DataPages: 1, IndexPages: 1, PageSize: 4096}
	if got := u.Ratio(); got != 0.5 {
		t.Errorf("ratio = %v, want 0.5", got)
	}
	empty := Utilization{PageSize: 4096}
	if empty.Ratio() != 0 {
		t.Error("empty utilization not 0")
	}
	full := Utilization{ObjectBytes: 8192, DataPages: 2, PageSize: 4096}
	if full.Ratio() != 1 {
		t.Error("perfect utilization not 1")
	}
}

func TestUtilizationString(t *testing.T) {
	u := Utilization{ObjectBytes: 4096, DataPages: 1, IndexPages: 1, PageSize: 4096}
	s := u.String()
	for _, want := range []string{"50.0%", "4096 bytes", "1 data", "1 index"} {
		if !strings.Contains(s, want) {
			t.Errorf("utilization string %q missing %q", s, want)
		}
	}
}

// Property: Ratio is always in [0,1] for consistent inputs.
func TestUtilizationRatioBoundsQuick(t *testing.T) {
	prop := func(pagesRaw uint16, fillRaw uint16) bool {
		pages := int64(pagesRaw%1000) + 1
		fill := int64(fillRaw) % (pages*4096 + 1)
		u := Utilization{ObjectBytes: fill, DataPages: pages, PageSize: 4096}
		r := u.Ratio()
		return r >= 0 && r <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
