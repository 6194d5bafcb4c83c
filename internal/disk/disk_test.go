package disk

import (
	"bytes"
	"testing"

	"lobstore/internal/sim"
)

func newDisk(t *testing.T, opts ...Option) *Disk {
	t.Helper()
	d, err := New(sim.DefaultModel(), sim.NewClock(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := newDisk(t)
	a, err := d.AddArea(100)
	if err != nil {
		t.Fatal(err)
	}
	ps := d.PageSize()
	src := make([]byte, 3*ps)
	for i := range src {
		src[i] = byte(i * 7)
	}
	addr := Addr{Area: a, Page: 10}
	if err := d.Write(addr, 3, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 3*ps)
	if err := d.Read(addr, 3, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("round trip mismatch")
	}
}

func TestUnwrittenPagesReadZero(t *testing.T) {
	d := newDisk(t)
	a, _ := d.AddArea(10)
	dst := make([]byte, d.PageSize())
	for i := range dst {
		dst[i] = 0xFF
	}
	if err := d.Read(Addr{Area: a, Page: 5}, 1, dst); err != nil {
		t.Fatal(err)
	}
	for i, b := range dst {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

// TestCostAccounting verifies the paper's I/O cost formula end to end:
// one 3-page read = 45 ms, three 1-page reads = 111 ms.
func TestCostAccounting(t *testing.T) {
	d := newDisk(t)
	a, _ := d.AddArea(100)
	buf := make([]byte, 3*d.PageSize())
	if err := d.Read(Addr{Area: a, Page: 0}, 3, buf); err != nil {
		t.Fatal(err)
	}
	if got := d.Clock().Now(); got != 45*sim.Millisecond {
		t.Fatalf("3-page read advanced clock by %v, want 45ms", got)
	}
	for i := 0; i < 3; i++ {
		if err := d.Read(Addr{Area: a, Page: PageID(i)}, 1, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Clock().Now(); got != (45+111)*sim.Millisecond {
		t.Fatalf("clock %v, want 156ms", got)
	}
	st := d.Stats()
	if st.ReadCalls != 4 || st.PagesRead != 6 || st.WriteCalls != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBoundsChecking(t *testing.T) {
	d := newDisk(t)
	a, _ := d.AddArea(10)
	buf := make([]byte, 10*d.PageSize())
	if err := d.Read(Addr{Area: a, Page: 8}, 3, buf); err == nil {
		t.Error("read past area end succeeded")
	}
	if err := d.Write(Addr{Area: a, Page: 9}, 2, buf); err == nil {
		t.Error("write past area end succeeded")
	}
	if err := d.Read(Addr{Area: a + 1, Page: 0}, 1, buf); err == nil {
		t.Error("read from unknown area succeeded")
	}
	if err := d.Read(Addr{Area: a, Page: 0}, 0, buf); err == nil {
		t.Error("zero-page read succeeded")
	}
	if err := d.Read(Addr{Area: a, Page: 0}, 2, buf[:d.PageSize()]); err == nil {
		t.Error("short buffer read succeeded")
	}
}

func TestMultipleAreasAreIndependent(t *testing.T) {
	d := newDisk(t)
	a0, _ := d.AddArea(10)
	a1, _ := d.AddArea(10)
	ps := d.PageSize()
	one := bytes.Repeat([]byte{1}, ps)
	two := bytes.Repeat([]byte{2}, ps)
	if err := d.Write(Addr{Area: a0, Page: 3}, 1, one); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(Addr{Area: a1, Page: 3}, 1, two); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, ps)
	if err := d.Read(Addr{Area: a0, Page: 3}, 1, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("area 0 corrupted: %d", got[0])
	}
}

func TestWithoutMaterialization(t *testing.T) {
	d := newDisk(t, WithoutMaterialization())
	a, _ := d.AddArea(10)
	ps := d.PageSize()
	src := bytes.Repeat([]byte{9}, ps)
	if err := d.Write(Addr{Area: a, Page: 0}, 1, src); err != nil {
		t.Fatal(err)
	}
	dst := bytes.Repeat([]byte{7}, ps)
	if err := d.Read(Addr{Area: a, Page: 0}, 1, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0 {
		t.Fatal("cost-only disk returned data")
	}
	if st := d.Stats(); st.Calls() != 2 {
		t.Fatalf("cost-only disk must still account I/O: %+v", st)
	}
	if err := d.Peek(Addr{Area: a, Page: 0}, 1, dst); err == nil {
		t.Fatal("Peek on cost-only disk succeeded")
	}
}

func TestPeekDoesNotChargeIO(t *testing.T) {
	d := newDisk(t)
	a, _ := d.AddArea(10)
	ps := d.PageSize()
	src := bytes.Repeat([]byte{5}, ps)
	if err := d.Write(Addr{Area: a, Page: 2}, 1, src); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	dst := make([]byte, ps)
	if err := d.Peek(Addr{Area: a, Page: 2}, 1, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 5 {
		t.Fatal("peek returned wrong data")
	}
	if d.Stats() != before {
		t.Fatal("peek charged I/O")
	}
}

func TestAddrHelpers(t *testing.T) {
	a := Addr{Area: 1, Page: 10}
	if got := a.Add(5); got.Page != 15 || got.Area != 1 {
		t.Fatalf("Add: %v", got)
	}
	if a.String() != "1:10" {
		t.Fatalf("String: %q", a.String())
	}
}

func TestLazyGrowthReadsBeyondWrites(t *testing.T) {
	d := newDisk(t)
	a, _ := d.AddArea(100)
	ps := d.PageSize()
	// Write page 50, then read pages 49-51: page 49/51 zero, 50 has data.
	src := bytes.Repeat([]byte{3}, ps)
	if err := d.Write(Addr{Area: a, Page: 50}, 1, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 3*ps)
	if err := d.Read(Addr{Area: a, Page: 49}, 3, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0 || dst[ps] != 3 || dst[2*ps] != 0 {
		t.Fatalf("lazy growth read: %d %d %d", dst[0], dst[ps], dst[2*ps])
	}
}

func TestFailAfterInjection(t *testing.T) {
	d := newDisk(t)
	a, _ := d.AddArea(10)
	buf := make([]byte, d.PageSize())
	d.FailAfter(2, errTest)
	if err := d.Read(Addr{Area: a, Page: 0}, 1, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(Addr{Area: a, Page: 0}, 1, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(Addr{Area: a, Page: 0}, 1, buf); err == nil {
		t.Fatal("third I/O did not fail")
	}
	if err := d.Write(Addr{Area: a, Page: 0}, 1, buf); err == nil {
		t.Fatal("fault injection did not persist")
	}
	d.FailAfter(-1, nil)
	if err := d.Read(Addr{Area: a, Page: 0}, 1, buf); err != nil {
		t.Fatalf("disarmed injection still fails: %v", err)
	}
}

var errTest = bytes.ErrTooLarge // any sentinel
