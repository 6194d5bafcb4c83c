package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultModelMatchesPaper(t *testing.T) {
	m := DefaultModel()
	if m.PageSize != 4096 {
		t.Errorf("page size = %d, want 4096", m.PageSize)
	}
	if m.SeekTime != 33*Millisecond {
		t.Errorf("seek = %v, want 33ms", m.SeekTime)
	}
	if m.TransferPerKB != Millisecond {
		t.Errorf("transfer = %v, want 1ms/KB", m.TransferPerKB)
	}
}

// TestIOCostPaperExample reproduces the worked example of §4.1: reading a
// 3-block (12 KB) segment costs 33+4*3 = 45 ms; the same blocks in three
// calls cost (33+4)*3 = 111 ms.
func TestIOCostPaperExample(t *testing.T) {
	m := DefaultModel()
	if got := m.IOCost(3); got != 45*Millisecond {
		t.Errorf("3-page I/O = %v, want 45ms", got)
	}
	if got := 3 * m.IOCost(1); got != 111*Millisecond {
		t.Errorf("3x 1-page I/O = %v, want 111ms", got)
	}
}

func TestIOCostZeroAndNegative(t *testing.T) {
	m := DefaultModel()
	if m.IOCost(0) != 0 || m.IOCost(-5) != 0 {
		t.Error("non-positive page counts must cost nothing")
	}
}

// One multi-page I/O is never more expensive than split I/Os.
func TestIOCostSubadditive(t *testing.T) {
	m := DefaultModel()
	f := func(a, b uint8) bool {
		na, nb := int(a%64)+1, int(b%64)+1
		return m.IOCost(na+nb) <= m.IOCost(na)+m.IOCost(nb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		m  CostModel
		ok bool
	}{
		{DefaultModel(), true},
		{CostModel{PageSize: 0, SeekTime: 1, TransferPerKB: 1}, false},
		{CostModel{PageSize: 1000, SeekTime: 1, TransferPerKB: 1}, false},
		{CostModel{PageSize: 512, SeekTime: -1, TransferPerKB: 1}, false},
		{CostModel{PageSize: 512, SeekTime: 1, TransferPerKB: 1}, true},
	}
	for i, c := range cases {
		if err := c.m.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestClock(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatal("new clock not at zero")
	}
	c.Advance(5 * Millisecond)
	start := c.Now()
	c.Advance(-3) // ignored
	c.Advance(2 * Millisecond)
	if c.Now() != 7*Millisecond {
		t.Errorf("now = %v, want 7ms", c.Now())
	}
	if c.Since(start) != 2*Millisecond {
		t.Errorf("since = %v, want 2ms", c.Since(start))
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500µs"},
		{45 * Millisecond, "45.00ms"},
		{22300 * Millisecond, "22.30s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d → %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{ReadCalls: 3, WriteCalls: 2, PagesRead: 10, PagesWritten: 7, SeekDistance: 50, Time: 100}
	b := Stats{ReadCalls: 1, WriteCalls: 1, PagesRead: 4, PagesWritten: 2, SeekDistance: 20, Time: 40}
	var s Stats
	s.Add(a)
	s.Add(b)
	if s.Calls() != 7 || s.Pages() != 23 || s.SeekDistance != 70 || s.Time != 140 {
		t.Errorf("add: %+v", s)
	}
	d := s.Sub(b)
	if d != a {
		t.Errorf("sub: %+v, want %+v", d, a)
	}
}

func TestStatsCSV(t *testing.T) {
	s := Stats{ReadCalls: 3, WriteCalls: 2, PagesRead: 10, PagesWritten: 7, SeekDistance: 50, Time: 100}
	if got, want := s.CSV(), "3,2,10,7,50,100"; got != want {
		t.Errorf("CSV() = %q, want %q", got, want)
	}
	header := CSVHeader()
	if strings.Count(header, ",") != strings.Count(s.CSV(), ",") {
		t.Errorf("header %q has different arity than row %q", header, s.CSV())
	}
	// String stays in its historical shape: consumers parse it.
	if got := s.String(); !strings.HasPrefix(got, "ios=5 (r=3 w=2) pages=17 (r=10 w=7)") {
		t.Errorf("String() = %q changed shape", got)
	}
	if (Stats{}).CSV() != "0,0,0,0,0,0" {
		t.Errorf("zero CSV = %q", (Stats{}).CSV())
	}
}
