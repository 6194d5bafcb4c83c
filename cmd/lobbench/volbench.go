package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

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

// volCell is one BENCH_volume.json cell: the volume it opens in a fresh
// directory and the benchmark it runs against it. bench may fill its
// family's extra fields of the case it is handed; they are read after the
// run.
type volCell struct {
	name  string
	pages int // pages moved per op, for MB/s
	open  func(dir string) (disk.Volume, error)
	bench func(v disk.Volume, c *volBenchCase) (func(*testing.B), error)
}

// run measures the cell in its own temporary directory, which it removes.
func (c volCell) run() (volBenchCase, error) {
	out := volBenchCase{Name: c.name}
	dir, err := os.MkdirTemp("", "lobbench-vol-*")
	if err != nil {
		return out, err
	}
	v, err := c.open(dir)
	if err != nil {
		return out, errors.Join(err, os.RemoveAll(dir))
	}
	bytesPerOp := float64(c.pages * v.PageSize())
	var res testing.BenchmarkResult
	fn, err := c.bench(v, &out)
	if err == nil {
		res = testing.Benchmark(fn)
	}
	if err := errors.Join(err, v.Close(), os.RemoveAll(dir)); err != nil {
		return out, err
	}
	out.NsPerOp = float64(res.NsPerOp())
	if out.NsPerOp > 0 {
		out.MBPerS = bytesPerOp / out.NsPerOp * 1e9 / (1 << 20)
	}
	out.AllocsPerOp = res.AllocsPerOp()
	return out, nil
}

// volumeBenchmarks runs the backend × pattern × op × sync matrix, then the
// buffer-pool write-back and group-commit families.
func volumeBenchmarks(pageSize int) (*volBenchReport, error) {
	memOpen := func(string) (disk.Volume, error) { return disk.NewMemVolume(pageSize), nil }
	fileOpen := func(opts ...filevol.Option) func(dir string) (disk.Volume, error) {
		return func(dir string) (disk.Volume, error) {
			return filevol.Open(dir, pageSize, opts...)
		}
	}
	noSync := fileOpen(filevol.WithPolicy(filevol.SyncNever))
	raw := func(random, write bool) func(disk.Volume, *volBenchCase) (func(*testing.B), error) {
		return func(v disk.Volume, _ *volBenchCase) (func(*testing.B), error) {
			return benchVolume(v, random, write), nil
		}
	}
	cells := []volCell{
		{"mem-seq-read", volBenchRunPages, memOpen, raw(false, false)},
		{"mem-rand-read", volBenchRunPages, memOpen, raw(true, false)},
		{"mem-seq-write", volBenchRunPages, memOpen, raw(false, true)},
		{"mem-rand-write", volBenchRunPages, memOpen, raw(true, true)},
		// SyncNever isolates the pread/pwrite cost; -sync adds an fsync per
		// write (the SyncAlways policy), the durability tax ceiling.
		{"file-seq-read", volBenchRunPages, noSync, raw(false, false)},
		{"file-rand-read", volBenchRunPages, noSync, raw(true, false)},
		{"file-seq-write", volBenchRunPages, noSync, raw(false, true)},
		{"file-rand-write", volBenchRunPages, noSync, raw(true, true)},
		{"file-seq-write-sync", volBenchRunPages, fileOpen(filevol.WithPolicy(filevol.SyncAlways)), raw(false, true)},
		{"file-rand-write-sync", volBenchRunPages, fileOpen(filevol.WithPolicy(filevol.SyncAlways)), raw(true, true)},
	}

	// Pool write-back cells: the same backends driven through the buffer
	// pool.
	pool := func(v disk.Volume, c *volBenchCase) (func(*testing.B), error) {
		p, d, err := newPoolBench(v)
		if err != nil {
			return nil, err
		}
		return benchPoolWriteback(p, d, &c.WriteCalls, &c.SimMs), nil
	}
	cells = append(cells,
		volCell{"pool-mem-writeback", poolBenchWindow, memOpen, pool},
		volCell{"pool-file-writeback", poolBenchWindow, noSync, pool})

	// Group-commit cells: N concurrent committers, each op one durable
	// barrier. The 1-client cell is the per-op-fsync baseline the larger
	// batches are judged against.
	for _, clients := range []int{1, 4, 16, 64} {
		for _, pattern := range []string{"seq", "rand"} {
			cells = append(cells, volCell{
				name:  fmt.Sprintf("group-commit-%d-%s-append", clients, pattern),
				pages: volBenchRunPages,
				open: fileOpen(filevol.WithPolicy(filevol.SyncCommit),
					filevol.WithGroupCommit(filevol.GroupCommit{MaxBatch: clients, MaxDelay: 2 * time.Millisecond})),
				bench: func(v disk.Volume, c *volBenchCase) (func(*testing.B), error) {
					return benchGroupCommit(v.(*filevol.Volume), clients, pattern == "rand", &c.FsyncsPerOp, &c.AvgBatch), nil
				},
			})
		}
	}

	rep := &volBenchReport{PageSize: pageSize, RunPages: volBenchRunPages}
	for _, c := range cells {
		vc, err := c.run()
		if err != nil {
			return nil, err
		}
		rep.Cases = append(rep.Cases, vc)
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
