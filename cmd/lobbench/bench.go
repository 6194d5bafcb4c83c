package main

import (
	"encoding/json"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"lobstore"
	"lobstore/internal/buffer"
	"lobstore/internal/core"
	"lobstore/internal/disk"
	"lobstore/internal/engine"
	"lobstore/internal/eos"
	"lobstore/internal/esm"
	"lobstore/internal/lobtest"
	"lobstore/internal/sim"
	"lobstore/internal/starburst"
	"lobstore/internal/store"
	"lobstore/internal/wire"
)

// benchReport is the BENCH_harness.json schema: per-experiment wall time,
// Go allocations, GC cycles, heap size and simulated disk time, wall-clock
// operation latency percentiles per experiment and per cell, plus
// allocation micro-benchmarks of the I/O hot paths. CI regenerates it at
// quick scale on every push and benchdiff gates on the p99 columns.
type benchReport struct {
	Config      benchConfigInfo `json:"config"`
	Prepass     *benchPhase     `json:"prepass,omitempty"`
	Experiments []benchPhase    `json:"experiments"`
	Cells       []benchCell     `json:"cells,omitempty"`
	Micro       []microResult   `json:"micro"`
	TotalSimMs  float64         `json:"total_sim_ms"`
	TotalWallMs float64         `json:"total_wall_ms"`
}

type benchConfigInfo struct {
	Quick       bool  `json:"quick"`
	ObjectBytes int64 `json:"object_bytes"`
	MixOps      int   `json:"mix_ops"`
	Seed        int64 `json:"seed"`
	Workers     int   `json:"workers"`
}

// benchPhase records one experiment's assembly (or the parallel prepass):
// wall-clock time, resource stats, and the simulated disk time accumulated
// by the databases opened during the phase. The op-wall percentile fields
// cover every operation span of every cell behind the experiment — merged
// from the per-cell telemetry HDRs, so they are filled however the cells
// were scheduled — and stay zero when telemetry is off or the experiment
// has no cell decomposition.
type benchPhase struct {
	Name      string  `json:"name"`
	WallMs    float64 `json:"wall_ms"`
	Allocs    uint64  `json:"allocs"`
	GCCycles  uint32  `json:"gc_cycles"`
	HeapBytes uint64  `json:"heap_bytes"`
	SimMs     float64 `json:"sim_ms"`

	OpCount     int64 `json:"op_count,omitempty"`
	OpWallP50Us int64 `json:"op_wall_p50_us,omitempty"`
	OpWallP95Us int64 `json:"op_wall_p95_us,omitempty"`
	OpWallP99Us int64 `json:"op_wall_p99_us,omitempty"`
}

// benchCell records one simulation cell: its wall-clock computation time and
// the wall-clock latency percentiles of the operation spans it executed.
type benchCell struct {
	Key         string  `json:"key"`
	WallMs      float64 `json:"wall_ms"`
	OpCount     int64   `json:"op_count,omitempty"`
	OpWallP50Us int64   `json:"op_wall_p50_us,omitempty"`
	OpWallP95Us int64   `json:"op_wall_p95_us,omitempty"`
	OpWallP99Us int64   `json:"op_wall_p99_us,omitempty"`
}

type microResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchTracker attributes simulated time to phases by remembering every
// database the runner opens. Observe runs on worker goroutines under a
// parallel schedule, hence the mutex.
type benchTracker struct {
	mu  sync.Mutex
	dbs []*lobstore.DB
}

func (t *benchTracker) track(db *lobstore.DB) {
	t.mu.Lock()
	t.dbs = append(t.dbs, db)
	t.mu.Unlock()
}

func (t *benchTracker) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.dbs)
}

// simSince sums the simulated clocks of the databases opened at index from
// onward. Called only between phases, when no worker is running.
func (t *benchTracker) simSince(from int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ms float64
	for _, db := range t.dbs[from:] {
		ms += float64(db.Now().Milliseconds())
	}
	return ms
}

// measurePhase runs fn and returns its wall time, allocation count, and the
// simulated time of databases opened while it ran.
func (t *benchTracker) measurePhase(name string, fn func() error) (benchPhase, error) {
	from := t.count()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return benchPhase{
		Name:      name,
		WallMs:    float64(wall.Microseconds()) / 1000,
		Allocs:    after.Mallocs - before.Mallocs,
		GCCycles:  after.NumGC - before.NumGC,
		HeapBytes: after.HeapAlloc,
		SimMs:     t.simSince(from),
	}, err
}

// microBenchmarks measures the allocation behaviour of the I/O hot paths
// via testing.Benchmark: the buffer pool's multi-page hit path and its
// single-page miss at two pool sizes (victim selection must not make a
// miss cost more in a larger pool), the simulated disk's materialized
// read, the engine lock manager's uncontended cycle, the wire protocol's
// loopback round trip at pipeline depths 1 and 16, and one insert or
// delete of lobtest's mutation stream on each manager (the stream its
// allocation-budget tests run). All were (or guard against becoming)
// allocation sites; the JSON keeps them pinned.
func microBenchmarks() []microResult {
	specs := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"FixRunHit4", benchFixRunHit},
		{"PoolMiss256", func(b *testing.B) { benchPoolMiss(b, 256) }},
		{"PoolMiss16k", func(b *testing.B) { benchPoolMiss(b, 16<<10) }},
		{"DiskReadMaterialized4", benchDiskReadMaterialized},
		{"DiskSequentialWriteGrow", benchDiskWriteGrow},
		{"LockUncontended", benchLockUncontended},
		{"WireRoundTripSerial", func(b *testing.B) { benchWireRoundTrip(b, 1) }},
		{"WireRoundTripPipelined", func(b *testing.B) { benchWireRoundTrip(b, 16) }},
		{"MutationEOS16", func(b *testing.B) {
			lobtest.BenchMutations(b, func(st *store.Store) (core.Object, error) {
				return eos.New(st, eos.Config{Threshold: 16})
			}, 2000)
		}},
		{"MutationESM4", func(b *testing.B) {
			lobtest.BenchMutations(b, func(st *store.Store) (core.Object, error) {
				return esm.New(st, esm.Config{LeafPages: 4})
			}, 2000)
		}},
		{"MutationStarburst", func(b *testing.B) {
			lobtest.BenchMutations(b, func(st *store.Store) (core.Object, error) {
				return starburst.New(st, starburst.Config{})
			}, 200)
		}},
	}
	out := make([]microResult, 0, len(specs))
	for _, s := range specs {
		res := testing.Benchmark(s.fn)
		out = append(out, microResult{
			Name:        s.name,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
	}
	return out
}

// benchFixRunHit measures a 4-page FixRun with all pages resident — the
// sequential-scan fast path.
func benchFixRunHit(b *testing.B) {
	d, err := disk.New(sim.DefaultModel(), sim.NewClock())
	if err != nil {
		b.Fatal(err)
	}
	aid, err := d.AddArea(64)
	if err != nil {
		b.Fatal(err)
	}
	pool, err := buffer.New(d, buffer.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	addr := disk.Addr{Area: aid, Page: 8}
	hs, err := pool.FixRun(addr, 4)
	if err != nil {
		b.Fatal(err)
	}
	buffer.UnfixAll(hs, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs, err := pool.FixRun(addr, 4)
		if err != nil {
			b.Fatal(err)
		}
		buffer.UnfixAll(hs, false)
	}
}

// benchPoolMiss measures a single-page miss in a full, clean pool of the
// given size: pages are fixed round-robin over twice the pool, so every fix
// evicts the least recently used page and reads another.
func benchPoolMiss(b *testing.B, frames int) {
	d, err := disk.New(sim.DefaultModel(), sim.NewClock())
	if err != nil {
		b.Fatal(err)
	}
	aid, err := d.AddArea(2 * frames)
	if err != nil {
		b.Fatal(err)
	}
	pool, err := buffer.New(d, buffer.Config{Frames: frames, MaxRun: 4})
	if err != nil {
		b.Fatal(err)
	}
	next := 0
	miss := func() {
		h, err := pool.FixPage(disk.Addr{Area: aid, Page: disk.PageID(next)})
		if err != nil {
			b.Fatal(err)
		}
		h.Unfix(false)
		next = (next + 1) % (2 * frames)
	}
	for i := 0; i < frames; i++ {
		miss()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miss()
	}
}

// benchLockUncontended measures the lock manager's fast path: one
// goroutine cycling a shared then exclusive lock on one object with
// nobody waiting — the fixed per-request overhead of the serving path.
func benchLockUncontended(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	engine.LockCycle(b.N)
}

// benchWireRoundTrip measures b.N empty round trips against a loopback
// echo peer with depth requests kept in flight: depth 1 is the serial
// protocol, depth 16 shows what request pipelining recovers from the
// per-round-trip socket latency.
func benchWireRoundTrip(b *testing.B, depth int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close() //lobvet:ignore errdiscard — benchmark teardown
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close() //lobvet:ignore errdiscard — benchmark teardown
		r := wire.NewReader(conn, 0)
		var hdr [wire.HeaderSize]byte
		var body []byte
		for {
			h, err := r.Next()
			if err != nil {
				return
			}
			if body, err = r.Payload(h, body); err != nil {
				return
			}
			wire.PutHeader(hdr[:], wire.Header{Type: wire.RespOK, Flags: wire.FlagLast, ReqID: h.ReqID, Len: 8})
			var ok [8]byte
			if _, err := (&net.Buffers{hdr[:], ok[:]}).WriteTo(conn); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close() //lobvet:ignore errdiscard — benchmark teardown
	r := wire.NewReader(conn, 0)
	var hdr [wire.HeaderSize]byte
	var body []byte
	b.ReportAllocs()
	b.ResetTimer()
	inflight := 0
	drain := func() {
		h, err := r.Next()
		if err != nil {
			b.Fatal(err)
		}
		if body, err = r.Payload(h, body); err != nil {
			b.Fatal(err)
		}
		inflight--
	}
	for i := 0; i < b.N; i++ {
		wire.PutHeader(hdr[:], wire.Header{Type: wire.OpPing, Flags: wire.FlagLast, ReqID: uint32(i), Len: 0})
		if _, err := conn.Write(hdr[:]); err != nil {
			b.Fatal(err)
		}
		inflight++
		for inflight >= depth {
			drain()
		}
	}
	for inflight > 0 {
		drain()
	}
}

// benchDiskReadMaterialized measures a 4-page materialized disk read into a
// reused buffer.
func benchDiskReadMaterialized(b *testing.B) {
	d, err := disk.New(sim.DefaultModel(), sim.NewClock())
	if err != nil {
		b.Fatal(err)
	}
	aid, err := d.AddArea(64)
	if err != nil {
		b.Fatal(err)
	}
	addr := disk.Addr{Area: aid, Page: 0}
	buf := make([]byte, 4*d.PageSize())
	if err := d.Write(addr, 4, buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Read(addr, 4, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDiskWriteGrow measures sequential writes that keep growing the
// materialized area, exercising the amortized backing-store growth.
func benchDiskWriteGrow(b *testing.B) {
	d, err := disk.New(sim.DefaultModel(), sim.NewClock())
	if err != nil {
		b.Fatal(err)
	}
	npages := 1 << 20
	aid, err := d.AddArea(npages)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, d.PageSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := disk.Addr{Area: aid, Page: disk.PageID(i % npages)}
		if err := d.Write(addr, 1, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func writeBenchJSON(path string, rep *benchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
