package engine

import (
	"testing"

	"lobstore/internal/disk"
	"lobstore/internal/store"
)

// BenchmarkLockUncontended measures the lock manager's fast path: one
// goroutine acquiring and releasing one object's lock with nobody
// waiting. This is the fixed per-request overhead every serving operation
// pays before it touches the store, so it must stay lock-free-cheap: a
// mutex pair and a flag update, zero allocations.
func BenchmarkLockUncontended(b *testing.B) {
	b.ReportAllocs()
	LockCycle(b.N)
}

// BenchmarkLockTableGet measures the root→lock map hit path that runs
// once per request before the acquire.
func BenchmarkLockTableGet(b *testing.B) {
	var t lockTable
	addr := disk.Addr{Area: 1, Page: 7}
	t.get(addr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t.get(addr) == nil {
			b.Fatal("lost the lock")
		}
	}
}

// BenchmarkOpStatePool measures the pooled per-operation state cycle
// that replaced the per-request heap OpState on the hot path.
func BenchmarkOpStatePool(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op := opPool.Get().(*store.OpState)
		op.Reset()
		opPool.Put(op)
	}
}
