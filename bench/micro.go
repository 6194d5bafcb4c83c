package main

import (
	"errors"
	"math/rand"
	"os"
	"slices"
	"time"

	"lobstore/internal/buffer"
	"lobstore/internal/disk"
	"lobstore/internal/filevol"
	"lobstore/internal/store"
	"lobstore/internal/wire"
)

// Rung 4 of the ladder: each layer's exported functions called directly,
// with the shapes the workloads produce. scale in (0,1] shortens the loops
// for short runs; the figures are means over a loop, so they do not depend
// on it.

// perCall times n calls of f and returns the mean in nanoseconds.
func perCall(n int, f func(i int) error) (float64, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / float64(n), nil
}

func iters(base int, scale float64) int { return max(16, int(float64(base)*scale)) }

// microWire times encoding plus decoding of the three frames the hot paths
// carry, header CRC included.
func microWire(out map[string]float64, scale float64) error {
	name := []byte(objName(7))
	data := make([]byte, pointReadSize)
	buf := make([]byte, 0, wire.HeaderSize+len(data)+64)
	frame := func(typ byte, body func([]byte) []byte, parse func([]byte) error) func(int) error {
		return func(i int) error {
			b := body(buf[:wire.HeaderSize])
			wire.PutHeader(b, wire.Header{Type: typ, Flags: wire.FlagLast, ReqID: uint32(i), Len: uint32(len(b) - wire.HeaderSize)})
			h, err := wire.ParseHeader(b)
			if err != nil {
				return err
			}
			return parse(b[wire.HeaderSize : wire.HeaderSize+int(h.Len)])
		}
	}
	read := frame(wire.OpRead,
		func(b []byte) []byte {
			return wire.AppendReadReq(b, wire.ReadReq{Name: name, Off: 12345, Len: pointReadSize})
		},
		func(p []byte) error { _, err := wire.ParseReadReq(p); return err })
	app := frame(wire.OpAppend,
		func(b []byte) []byte { return wire.AppendAppendReq(b, wire.AppendReqMsg{Name: name, Data: data}) },
		func(p []byte) error { _, err := wire.ParseAppendReq(p); return err })
	resp := frame(wire.RespData,
		func(b []byte) []byte { return append(b, data...) },
		func(p []byte) error { return nil })
	var err error
	n := iters(200_000, scale)
	if out["wire.read_req_codec_ns"], err = perCall(n, read); err != nil {
		return err
	}
	if out["wire.append4k_req_codec_ns"], err = perCall(n, app); err != nil {
		return err
	}
	if out["wire.data_resp_codec_ns"], err = perCall(n, resp); err != nil {
		return err
	}
	out["wire.bytes_per_read_req"] = float64(len(wire.AppendReadReq(buf[:wire.HeaderSize], wire.ReadReq{Name: name})))
	return nil
}

// microStore times the buffer pool and the buddy allocator over a memory
// volume, assembled by store.Open exactly as the stack assembles them.
func microStore(out map[string]float64, seed int64, scale float64) error {
	cfg := storeConfig("mem", "", false)
	p := store.DefaultParams()
	p.Pool = buffer.Config{Frames: cfg.BufferPages, MaxRun: cfg.MaxBufferedRun}
	p.LeafAreaPages, p.MetaAreaPages = cfg.LeafAreaPages, cfg.MetaAreaPages
	st, err := store.Open(p)
	if err != nil {
		return err
	}
	const span = 4096 // pages; 16x the pool, so a cycling scan always misses
	seg, err := st.AllocSegment(span)
	if err != nil {
		return err
	}
	zero := make([]byte, span*pageSize)
	if err := st.WritePages(seg.Addr, span, zero); err != nil {
		return err
	}
	n := iters(200_000, scale)
	if out["buffer.fix_hit_ns"], err = perCall(n, func(i int) error {
		h, err := st.Pool.FixPage(seg.Addr.Add(i % 64))
		if err != nil {
			return err
		}
		h.Unfix(false)
		return nil
	}); err != nil {
		return err
	}
	run := st.Pool.MaxRun()
	if out["buffer.fixrun_miss_ns"], err = perCall(n/4, func(i int) error {
		hs, err := st.Pool.FixRun(seg.Addr.Add(i*run%span), run)
		if err != nil {
			return err
		}
		buffer.UnfixAll(hs, false)
		return nil
	}); err != nil {
		return err
	}

	// Allocate and free in edit-mix's shape: segments of 10 KB +-50%, freed
	// in random order so the free lists split and coalesce.
	rng := rand.New(rand.NewSource(seed))
	type block struct {
		addr  disk.Addr
		pages int
	}
	blocks := make([]block, iters(20_000, scale))
	before := st.Leaf.Stats()
	if out["buddy.alloc_ns"], err = perCall(len(blocks), func(i int) error {
		pages := (editMeanOp/2 + rng.Intn(editMeanOp+1) + pageSize - 1) / pageSize
		addr, err := st.Leaf.Alloc(pages)
		blocks[i] = block{addr, pages}
		return err
	}); err != nil {
		return err
	}
	rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	if out["buddy.free_ns"], err = perCall(len(blocks), func(i int) error {
		return st.Leaf.Free(blocks[i].addr, blocks[i].pages)
	}); err != nil {
		return err
	}
	after := st.Leaf.Stats()
	out["buddy.dir_io_per_alloc"] = float64(after.DirectoryLoads-before.DirectoryLoads) / float64(after.Allocs-before.Allocs)
	return st.Close()
}

// microFilevol times the file volume alone: reads served by the OS page
// cache, writes into it, and the sandbox's fdatasync after a 4-page write.
func microFilevol(out map[string]float64, outdir string, seed int64, scale float64) (err error) {
	dir, err := os.MkdirTemp(outdir, "vol-")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	vol, err := filevol.Open(dir, pageSize, filevol.WithPolicy(filevol.SyncCommit))
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, vol.Close()) }()
	const mb, span = 256, 16 * 256 // pages per MB; pages written up front
	area, err := vol.AddArea(4 * span)
	if err != nil {
		return err
	}
	at := func(page int) disk.Addr { return disk.Addr{Area: area, Page: disk.PageID(page)} }
	buf := make([]byte, mb*pageSize)
	fill(buf, uint64(seed), 0)
	for p := 0; p < span; p += mb {
		if err := vol.WriteRun(at(p), mb, buf); err != nil {
			return err
		}
	}
	if err := vol.Sync(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	n := iters(50_000, scale)
	if out["filevol.pread_4k_ns"], err = perCall(n, func(int) error { return vol.ReadRun(at(rng.Intn(span)), 1, buf) }); err != nil {
		return err
	}
	perMB, err := perCall(n/100, func(i int) error { return vol.ReadRun(at(i*mb%span), mb, buf) })
	if err != nil {
		return err
	}
	out["filevol.pread_us_per_mb"] = perMB / 1e3
	if out["filevol.pwrite_4k_ns"], err = perCall(n, func(int) error { return vol.WriteRun(at(rng.Intn(span)), 1, buf) }); err != nil {
		return err
	}
	if perMB, err = perCall(n/100, func(i int) error { return vol.WriteRun(at(i*mb%span), mb, buf) }); err != nil {
		return err
	}
	out["filevol.pwrite_us_per_mb"] = perMB / 1e3
	if err := vol.Sync(); err != nil {
		return err
	}
	syncs := make([]float64, iters(400, scale))
	for i := range syncs {
		if err := vol.WriteRun(at(rng.Intn(span-4)), 4, buf); err != nil {
			return err
		}
		t0 := time.Now()
		if err := vol.Sync(); err != nil {
			return err
		}
		syncs[i] = float64(time.Since(t0)) / 1e3
	}
	slices.Sort(syncs)
	out["filevol.fdatasync_p50_us"], out["filevol.fdatasync_p95_us"] = quantile(syncs, 0.50), quantile(syncs, 0.95)
	return nil
}
