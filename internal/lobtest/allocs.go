package lobtest

import (
	"math/rand"
	"runtime"
	"testing"

	"lobstore/internal/core"
	"lobstore/internal/disk"
	"lobstore/internal/store"
)

// The mutation allocation budget: what one insert or delete of the
// mutationMix stream may allocate on the Go heap, averaged over the
// measured steps. The I/O buffers of a read-modify-write live in the
// store's per-operation arena, so a warmed object stays well inside it.
const (
	mutationBytesBudget  = 2 << 10
	mutationAllocsBudget = 8
)

// mutationMix is the edit stream behind the allocation budget: each step,
// with equal odds, inserts 5–15 KB at a uniform offset or deletes the
// previous insert's length at a uniform offset, so the object stays near
// the size it was built to.
type mutationMix struct {
	rng  *rand.Rand
	data []byte
	last int64
}

// newMutationMix returns the stream for seed.
func newMutationMix(seed int64) *mutationMix {
	data := make([]byte, 15<<10)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	return &mutationMix{rng: rand.New(rand.NewSource(seed)), data: data, last: 10 << 10}
}

// step applies the stream's next operation to obj.
func (m *mutationMix) step(obj core.Object) error {
	size := obj.Size()
	if m.rng.Intn(2) == 0 {
		n := 5<<10 + m.rng.Intn(10<<10+1)
		m.last = int64(n)
		return obj.Insert(m.rng.Int63n(size+1), m.data[:n])
	}
	n := min(m.last, size)
	return obj.Delete(m.rng.Int63n(size-n+1), n)
}

// warmMutations opens a memory-backed store with TestParams and a
// 256-frame pool, creates an object with newObj, builds it to 4 MB from
// 64 KB appends and runs warm steps of the seed-1 mutationMix on it: the
// starting point of the allocation budget. The first 32 MB of the leaf
// area are materialized up front, above the stream's peak, so the memory
// volume's one-time growth is not charged to whichever operation first
// writes past it.
func warmMutations(tb testing.TB, newObj func(st *store.Store) (core.Object, error), warm int) (core.Object, *mutationMix) {
	tb.Helper()
	p := TestParams()
	p.Pool.Frames = 256
	st, err := store.Open(p)
	if err != nil {
		tb.Fatalf("open store: %v", err)
	}
	if err := st.Disk.Volume().(*disk.MemVolume).Grow(st.LeafSegment(0, 1).Addr.Area, 8192); err != nil {
		tb.Fatalf("grow leaf area: %v", err)
	}
	obj, err := newObj(st)
	if err != nil {
		tb.Fatalf("create object: %v", err)
	}
	chunk := make([]byte, 64<<10)
	for obj.Size() < 4<<20 {
		if err := obj.Append(chunk); err != nil {
			tb.Fatalf("build: %v", err)
		}
	}
	mix := newMutationMix(1)
	for i := 0; i < warm; i++ {
		if err := mix.step(obj); err != nil {
			tb.Fatalf("warm-up step %d: %v", i, err)
		}
	}
	return obj, mix
}

// CheckMutationAllocBudget runs measured steps of the mutation stream
// after warmMutations and fails t when they allocate more than
// mutationBytesBudget bytes or mutationAllocsBudget objects per operation
// (runtime.MemStats TotalAlloc and Mallocs deltas).
func CheckMutationAllocBudget(t *testing.T, newObj func(st *store.Store) (core.Object, error), warm, measured int) {
	t.Helper()
	obj, mix := warmMutations(t, newObj, warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		if err := mix.step(obj); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	bytesPerOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(measured)
	allocsPerOp := float64(after.Mallocs-before.Mallocs) / float64(measured)
	t.Logf("%.0f bytes/op, %.1f allocs/op over %d operations", bytesPerOp, allocsPerOp, measured)
	if bytesPerOp > mutationBytesBudget || allocsPerOp > mutationAllocsBudget {
		t.Fatalf("mutation allocates %.0f bytes and %.1f objects per op, budget %d and %d",
			bytesPerOp, allocsPerOp, mutationBytesBudget, mutationAllocsBudget)
	}
}

// BenchMutations times b.N steps of the mutation stream after
// warmMutations.
func BenchMutations(b *testing.B, newObj func(st *store.Store) (core.Object, error), warm int) {
	obj, mix := warmMutations(b, newObj, warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mix.step(obj); err != nil {
			b.Fatal(err)
		}
	}
}
