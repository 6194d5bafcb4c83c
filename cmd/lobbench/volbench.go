package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"lobstore"
	"lobstore/internal/buffer"
	"lobstore/internal/disk"
	"lobstore/internal/filevol"
	"lobstore/internal/sim"
)

// Volume micro-benchmarks (BENCH_volume.json): raw throughput of the two
// byte-storage backends under the disk decorator's access pattern —
// 4-page runs, sequential and random, read and write, with the file
// backend measured both without fsync and with fsync-per-write. These pin
// the real-I/O cost of the durable volume against the in-memory baseline,
// so a regression in the pread/pwrite path or an accidental extra fsync
// shows up in CI.
const (
	volBenchPages    = 1024 // area size: 4 MB at 4 KB pages
	volBenchRunPages = 4    // run length per I/O call, the pool's MaxRun
)

// volBenchReport is the BENCH_volume.json schema.
type volBenchReport struct {
	PageSize int            `json:"page_size"`
	RunPages int            `json:"run_pages"`
	Cases    []volBenchCase `json:"cases"`
}

type volBenchCase struct {
	// Name is backend-pattern-op[-sync], e.g. "file-rand-write-sync",
	// pool-backend-writeback for the buffer-pool cells, or
	// group-commit-N-pattern-append for the barrier-combiner cells.
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// WriteCalls and SimMs are reported by the pool write-back cells only:
	// disk write calls and simulated milliseconds per operation.
	WriteCalls float64 `json:"write_calls_per_op,omitempty"`
	SimMs      float64 `json:"sim_ms_per_op,omitempty"`
	// FsyncsPerOp and AvgBatch are reported by the group-commit cells:
	// device flushes per committed op and mean barriers acknowledged per
	// flush. Amortization shows as FsyncsPerOp ≈ 1/clients.
	FsyncsPerOp float64 `json:"fsyncs_per_op,omitempty"`
	AvgBatch    float64 `json:"avg_batch,omitempty"`
}

// volBenchAddrs returns the per-iteration run start pages: sequential
// wrap-around or a fixed-seed random sequence, so every backend measures
// the identical access pattern.
func volBenchAddrs(random bool) []disk.PageID {
	const n = 512
	out := make([]disk.PageID, n)
	if random {
		rng := rand.New(rand.NewSource(42))
		for i := range out {
			out[i] = disk.PageID(rng.Intn(volBenchPages - volBenchRunPages))
		}
		return out
	}
	for i := range out {
		out[i] = disk.PageID((i * volBenchRunPages) % (volBenchPages - volBenchRunPages))
	}
	return out
}

// benchVolume measures one (volume, pattern, op) cell. The area is fully
// written first so reads hit real bytes and writes never grow the file
// inside the timed loop.
func benchVolume(v disk.Volume, random, write bool) func(b *testing.B) {
	return func(b *testing.B) {
		pageSize := v.PageSize()
		if _, err := v.AddArea(volBenchPages); err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, volBenchRunPages*pageSize)
		for i := range buf {
			buf[i] = byte(i)
		}
		for p := 0; p+volBenchRunPages <= volBenchPages; p += volBenchRunPages {
			if err := v.WriteRun(disk.Addr{Page: disk.PageID(p)}, volBenchRunPages, buf); err != nil {
				b.Fatal(err)
			}
		}
		if err := v.Sync(); err != nil {
			b.Fatal(err)
		}
		addrs := volBenchAddrs(random)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			addr := disk.Addr{Page: addrs[i%len(addrs)]}
			var err error
			if write {
				err = v.WriteRun(addr, volBenchRunPages, buf)
			} else {
				err = v.ReadRun(addr, volBenchRunPages, buf)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// poolBenchWindow is the dirty-run width of the pool write-back cells:
// narrower than the frame count so the window fits the pool.
const poolBenchWindow = 8

// newPoolBench wraps a backend in the simulated disk and a 12-frame pool
// and materializes every page, so the timed loop never grows the file.
// Setup happens once per cell: the benchmark closure reruns with growing
// b.N against the same pool.
func newPoolBench(v disk.Volume) (*buffer.Pool, *disk.Disk, error) {
	d, err := disk.New(sim.DefaultModel(), sim.NewClock(), disk.WithVolume(v))
	if err != nil {
		return nil, nil, err
	}
	if _, err := d.AddArea(volBenchPages); err != nil {
		return nil, nil, err
	}
	p, err := buffer.New(d, buffer.Config{Frames: 12, MaxRun: volBenchRunPages})
	if err != nil {
		return nil, nil, err
	}
	buf := make([]byte, volBenchRunPages*d.PageSize())
	for pg := 0; pg+volBenchRunPages <= volBenchPages; pg += volBenchRunPages {
		if err := d.Write(disk.Addr{Page: disk.PageID(pg)}, volBenchRunPages, buf); err != nil {
			return nil, nil, err
		}
	}
	return p, d, nil
}

// benchPoolWriteback measures the buffer pool's dirty write-back through a
// backend: each op dirties an ascending poolBenchWindow-page run and
// flushes it, one disk write per page. writeCalls and simMs receive the
// per-op disk write calls and simulated milliseconds.
func benchPoolWriteback(p *buffer.Pool, d *disk.Disk, writeCalls, simMs *float64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		before := d.Stats()
		for i := 0; i < b.N; i++ {
			start := disk.PageID((i * poolBenchWindow) % (volBenchPages - poolBenchWindow))
			for k := disk.PageID(0); k < poolBenchWindow; k++ {
				h, err := p.FixPage(disk.Addr{Page: start + k})
				if err != nil {
					b.Fatal(err)
				}
				h.Data[0] = byte(i)
				h.Unfix(true)
			}
			if err := p.FlushAll(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		delta := d.Stats().Sub(before)
		*writeCalls = float64(delta.WriteCalls) / float64(b.N)
		*simMs = delta.Time.Seconds() * 1e3 / float64(b.N)
	}
}

// benchGroupCommit measures the sync-heavy multi-client append workload
// through the barrier combiner: clients goroutines each loop
// {WriteRun(own 4-page run in its stripe); Sync()} under policy commit, so
// every op pays a durability barrier. clients == 1 with batching off is
// the per-op-fsync baseline; larger cells open the volume with
// MaxBatch == clients and a 2 ms window, and the ≥5× throughput win at
// batch 16 is what BENCH CI guards. b.N is split across the clients; each
// reports one op per committed barrier.
func benchGroupCommit(v *filevol.Volume, clients int, random bool, fsyncsPerOp, avgBatch *float64) func(b *testing.B) {
	return func(b *testing.B) {
		pageSize := v.PageSize()
		if _, err := v.AddArea(volBenchPages); err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, volBenchRunPages*pageSize)
		for i := range buf {
			buf[i] = byte(i)
		}
		// Materialize the whole area so the timed loop never grows the
		// files, then start everyone from a durable baseline.
		for p := 0; p+volBenchRunPages <= volBenchPages; p += volBenchRunPages {
			if err := v.WriteRun(disk.Addr{Page: disk.PageID(p)}, volBenchRunPages, buf); err != nil {
				b.Fatal(err)
			}
		}
		if err := v.SyncAll(); err != nil {
			b.Fatal(err)
		}
		stripe := volBenchPages / clients
		before := v.SyncStats()
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		errCh := make(chan error, clients)
		for c := 0; c < clients; c++ {
			n := b.N / clients
			if c < b.N%clients {
				n++
			}
			wg.Add(1)
			go func(c, n int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(c)))
				base := c * stripe
				for i := 0; i < n; i++ {
					var p int
					if random {
						p = base + rng.Intn(stripe-volBenchRunPages)
					} else {
						p = base + (i*volBenchRunPages)%(stripe-volBenchRunPages)
					}
					if err := v.WriteRun(disk.Addr{Page: disk.PageID(p)}, volBenchRunPages, buf); err != nil {
						errCh <- err
						return
					}
					if err := v.Sync(); err != nil {
						errCh <- err
						return
					}
				}
			}(c, n)
		}
		wg.Wait()
		b.StopTimer()
		close(errCh)
		for err := range errCh {
			b.Fatal(err)
		}
		delta := v.SyncStats().Sub(before)
		if b.N > 0 {
			*fsyncsPerOp = float64(delta.Fsyncs) / float64(b.N)
		}
		if delta.Batches > 0 {
			*avgBatch = float64(delta.Barriers) / float64(delta.Batches)
		}
	}
}

// engineBenchRuns is the number of 4-page runs each engine-cell object is
// primed with; the timed loop replaces runs in place so the database
// never grows, however large b.N gets.
const engineBenchRuns = 64

// benchEngineClients measures the concurrent stack end to end: clients
// goroutines each own one named ESM object in a single file-backed
// database opened with Config.Concurrent, and every op replaces one
// 4-page run in place under the commit sync policy — so every op pays a
// durability barrier, exactly the contention the engine exists to
// amortize. Scaling beyond the 1-client cell comes from committers
// parked at their commit barriers batching into shared fsyncs instead of
// queueing single-file behind the store mutex.
func benchEngineClients(db *lobstore.DB, objs []lobstore.Object, pageSize int) func(b *testing.B) {
	return func(b *testing.B) {
		clients := len(objs)
		runBytes := volBenchRunPages * pageSize
		buf := make([]byte, runBytes)
		for i := range buf {
			buf[i] = byte(i)
		}
		// Prime each object once so the replaces always land in place.
		for _, obj := range objs {
			for obj.Size() < int64(engineBenchRuns*runBytes) {
				if err := obj.Append(buf); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		errCh := make(chan error, clients)
		for c := 0; c < clients; c++ {
			n := b.N / clients
			if c < b.N%clients {
				n++
			}
			wg.Add(1)
			go func(obj lobstore.Object, n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					off := int64(i%engineBenchRuns) * int64(runBytes)
					if err := obj.Replace(off, buf); err != nil {
						errCh <- err
						return
					}
				}
			}(objs[c], n)
		}
		wg.Wait()
		b.StopTimer()
		close(errCh)
		for err := range errCh {
			b.Fatal(err)
		}
	}
}

// volumeBenchmarks runs the full backend × pattern × op × sync matrix.
func volumeBenchmarks(pageSize int) (*volBenchReport, error) {
	type cell struct {
		name   string
		open   func(dir string) (disk.Volume, error)
		random bool
		write  bool
	}
	memOpen := func(string) (disk.Volume, error) { return disk.NewMemVolume(pageSize), nil }
	fileOpen := func(policy filevol.Policy) func(dir string) (disk.Volume, error) {
		return func(dir string) (disk.Volume, error) {
			return filevol.Open(dir, pageSize, filevol.WithPolicy(policy))
		}
	}
	cells := []cell{
		{"mem-seq-read", memOpen, false, false},
		{"mem-rand-read", memOpen, true, false},
		{"mem-seq-write", memOpen, false, true},
		{"mem-rand-write", memOpen, true, true},
		// SyncNever isolates the pread/pwrite cost; -sync adds an fsync per
		// write (the SyncAlways policy), the durability tax ceiling.
		{"file-seq-read", fileOpen(filevol.SyncNever), false, false},
		{"file-rand-read", fileOpen(filevol.SyncNever), true, false},
		{"file-seq-write", fileOpen(filevol.SyncNever), false, true},
		{"file-rand-write", fileOpen(filevol.SyncNever), true, true},
		{"file-seq-write-sync", fileOpen(filevol.SyncAlways), false, true},
		{"file-rand-write-sync", fileOpen(filevol.SyncAlways), true, true},
	}
	rep := &volBenchReport{PageSize: pageSize, RunPages: volBenchRunPages}
	for _, c := range cells {
		dir, err := os.MkdirTemp("", "lobbench-vol-*")
		if err != nil {
			return nil, err
		}
		v, err := c.open(dir)
		if err != nil {
			return nil, err
		}
		res := testing.Benchmark(benchVolume(v, c.random, c.write))
		cerr := v.Close()
		rerr := os.RemoveAll(dir)
		if cerr != nil {
			return nil, cerr
		}
		if rerr != nil {
			return nil, rerr
		}
		bytesPerOp := float64(volBenchRunPages * pageSize)
		ns := float64(res.NsPerOp())
		mbps := 0.0
		if ns > 0 {
			mbps = bytesPerOp / ns * 1e9 / (1 << 20)
		}
		rep.Cases = append(rep.Cases, volBenchCase{
			Name:        c.name,
			NsPerOp:     ns,
			MBPerS:      mbps,
			AllocsPerOp: res.AllocsPerOp(),
		})
	}

	// Pool write-back cells: the same backends driven through the buffer
	// pool.
	poolCells := []struct {
		name string
		open func(dir string) (disk.Volume, error)
	}{
		{"pool-mem-writeback", memOpen},
		{"pool-file-writeback", fileOpen(filevol.SyncNever)},
	}
	for _, c := range poolCells {
		dir, err := os.MkdirTemp("", "lobbench-vol-*")
		if err != nil {
			return nil, err
		}
		v, err := c.open(dir)
		if err != nil {
			return nil, err
		}
		p, d, err := newPoolBench(v)
		if err != nil {
			return nil, err
		}
		var writeCalls, simMs float64
		res := testing.Benchmark(benchPoolWriteback(p, d, &writeCalls, &simMs))
		cerr := v.Close()
		rerr := os.RemoveAll(dir)
		if cerr != nil {
			return nil, cerr
		}
		if rerr != nil {
			return nil, rerr
		}
		bytesPerOp := float64(poolBenchWindow * pageSize)
		ns := float64(res.NsPerOp())
		mbps := 0.0
		if ns > 0 {
			mbps = bytesPerOp / ns * 1e9 / (1 << 20)
		}
		rep.Cases = append(rep.Cases, volBenchCase{
			Name:        c.name,
			NsPerOp:     ns,
			MBPerS:      mbps,
			AllocsPerOp: res.AllocsPerOp(),
			WriteCalls:  writeCalls,
			SimMs:       simMs,
		})
	}

	// Group-commit cells: N concurrent committers, each op one durable
	// barrier. The 1-client cell is the per-op-fsync baseline the larger
	// batches are judged against.
	for _, clients := range []int{1, 4, 16, 64} {
		for _, random := range []bool{false, true} {
			pattern := "seq"
			if random {
				pattern = "rand"
			}
			name := fmt.Sprintf("group-commit-%d-%s-append", clients, pattern)
			dir, err := os.MkdirTemp("", "lobbench-vol-*")
			if err != nil {
				return nil, err
			}
			v, err := filevol.Open(dir, pageSize,
				filevol.WithPolicy(filevol.SyncCommit),
				filevol.WithGroupCommit(filevol.GroupCommit{
					MaxBatch: clients,
					MaxDelay: 2 * time.Millisecond,
				}))
			if err != nil {
				return nil, err
			}
			var fsyncsPerOp, avgBatch float64
			res := testing.Benchmark(benchGroupCommit(v, clients, random, &fsyncsPerOp, &avgBatch))
			cerr := v.Close()
			rerr := os.RemoveAll(dir)
			if cerr != nil {
				return nil, cerr
			}
			if rerr != nil {
				return nil, rerr
			}
			bytesPerOp := float64(volBenchRunPages * pageSize)
			ns := float64(res.NsPerOp())
			mbps := 0.0
			if ns > 0 {
				mbps = bytesPerOp / ns * 1e9 / (1 << 20)
			}
			rep.Cases = append(rep.Cases, volBenchCase{
				Name:        name,
				NsPerOp:     ns,
				MBPerS:      mbps,
				AllocsPerOp: res.AllocsPerOp(),
				FsyncsPerOp: fsyncsPerOp,
				AvgBatch:    avgBatch,
			})
		}
	}

	// Engine cells: the sync-heavy append workload once more, but through
	// the whole concurrent facade — object locks, store mutex, commit
	// barriers, group commit. The 1-client cell is the serial baseline;
	// the 16-client cell is the scaling claim benchdiff watches
	// (warn-only, like every wall-clock volume cell).
	for _, clients := range []int{1, 4, 16} {
		name := fmt.Sprintf("engine-%d-clients", clients)
		dir, err := os.MkdirTemp("", "lobbench-vol-*")
		if err != nil {
			return nil, err
		}
		cfg := lobstore.DefaultConfig()
		cfg.Backend = "file"
		cfg.Dir = dir
		cfg.SyncPolicy = "commit"
		cfg.Concurrent = true
		// Parked committers hold their dirty pages sticky in the shared
		// pool, so the paper's 12-frame default starves under overlap;
		// every cell gets the same enlarged pool to keep scaling honest.
		cfg.BufferPages = 256
		cfg.GroupCommit = lobstore.GroupCommit{MaxBatch: clients, MaxDelay: 2 * time.Millisecond}
		db, err := lobstore.Open(cfg)
		if err != nil {
			return nil, err
		}
		objs := make([]lobstore.Object, clients)
		mkErr := error(nil)
		for i := range objs {
			objs[i], mkErr = db.Create(fmt.Sprintf("c%d", i), lobstore.ObjectSpec{Engine: "esm", LeafPages: volBenchRunPages})
			if mkErr != nil {
				break
			}
		}
		var res testing.BenchmarkResult
		if mkErr == nil {
			res = testing.Benchmark(benchEngineClients(db, objs, pageSize))
		}
		cerr := db.Close()
		rerr := os.RemoveAll(dir)
		if mkErr != nil {
			return nil, mkErr
		}
		if cerr != nil {
			return nil, cerr
		}
		if rerr != nil {
			return nil, rerr
		}
		bytesPerOp := float64(volBenchRunPages * pageSize)
		ns := float64(res.NsPerOp())
		mbps := 0.0
		if ns > 0 {
			mbps = bytesPerOp / ns * 1e9 / (1 << 20)
		}
		rep.Cases = append(rep.Cases, volBenchCase{
			Name:        name,
			NsPerOp:     ns,
			MBPerS:      mbps,
			AllocsPerOp: res.AllocsPerOp(),
		})
	}
	return rep, nil
}

func writeVolBenchJSON(path string, rep *volBenchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
