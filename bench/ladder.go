package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"lobstore"
)

// The traced run. Layers are measured from outside, so instead of nesting
// spans inside one request the same seeded stream is replayed at successively
// deeper entry points, and a layer's self time is its rung's median minus
// the next rung's:
//
//	rung 1  TCP through the server           2 connections   (the workload itself)
//	rung 2  engine handles, no socket        2 goroutines, then 1
//	rung 3  bare managers, Concurrent off    1 goroutine; file backend, then memory
//	rung 4  filevol, buffer, buddy, wire     called directly (micro.go)
//
// Shares of the run's seconds given to each timed phase.
const (
	shareUntraced = 0.20
	shareTraced   = 0.30
	shareRung     = 0.10
	pings         = 2000
	maxSpans      = 100_000 // per rung written to the trace file
)

// span is one line of the trace file.
type span struct {
	Req    uint64 `json:"req"` // client<<32 | sequence number in its stream
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent"`
}

type tracefile struct {
	f *os.File
	w *bufio.Writer
}

func createTrace(outdir, workload string) (*tracefile, error) {
	f, err := os.Create(filepath.Join(outdir, "trace-"+workload+".jsonl"))
	if err != nil {
		return nil, err
	}
	return &tracefile{f: f, w: bufio.NewWriter(f)}, nil
}

// add writes a rung's samples as spans under a root span named rung.
func (t *tracefile) add(rung string, r *run, seconds float64) error {
	enc := json.NewEncoder(t.w)
	if err := enc.Encode(span{Name: rung, End: int64(seconds * 1e9)}); err != nil {
		return err
	}
	n := 0
	for c, cs := range r.samples {
		for _, x := range cs {
			if n++; n > maxSpans {
				return nil
			}
			if err := enc.Encode(span{Req: uint64(c)<<32 | uint64(x.seq), Name: rung + "." + x.kind.String(), Start: x.start, End: x.end, Parent: rung}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (t *tracefile) close() error { return errors.Join(t.w.Flush(), t.f.Close()) }

// rungResult is one replay: its latencies and the I/O the store did meanwhile.
type rungResult struct {
	sum      summary
	io       lobstore.Stats
	barriers int64
}

// replay runs the workload's stream from the start, closed loop, against
// handles of a fresh preloaded store, once per entry of goroutines with that
// many clients (the stream continues from one entry to the next).
func replay(w workload, p params, backend string, concurrent bool, goroutines []int, tr *tracefile, name string) (_ []rungResult, err error) {
	dir := ""
	if backend == "file" {
		if dir, err = os.MkdirTemp(p.outdir, "rung-"); err != nil {
			return nil, err
		}
		defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	}
	db, err := openStore(storeConfig(backend, dir, concurrent), w, eosSpec, p.seed)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, db.Close()) }()
	h, err := openHandles(db, w)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, h.close()) }()
	gens := newGens(w, p.seed)
	d := p.dur(shareRung)
	var out []rungResult
	for _, n := range goroutines {
		execs := make([]executor, n)
		for i := range execs {
			execs[i] = h.view()
		}
		before := snapshot(db)
		r, err := closedLoop(w, gens[:n], execs, nil, d)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		after := snapshot(db)
		res := rungResult{sum: summarize(r, d.Seconds(), 1), io: after.io.Sub(before.io), barriers: after.barriers - before.barriers}
		if res.sum.failed > 0 {
			return nil, fmt.Errorf("%s: %d failed requests", name, res.sum.failed)
		}
		if err := tr.add(fmt.Sprintf("%s.%dg", name, n), r, d.Seconds()); err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// traced is the per-layer run.
func traced(w workload, p params) (_ *result, err error) {
	res := newResult()
	out := res.metrics
	tr, err := createTrace(p.outdir, w.name)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, tr.close()) }()

	// Rung 1: the workload over TCP, first untraced, then with the store's
	// metrics registry attached; the difference is what tracing costs.
	s, err := startStack(p.outdir, w, p.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { err = errors.Join(err, s.stop(), os.RemoveAll(s.dir)) }()
	rtt := make([]float64, pings)
	for i := range rtt {
		t0 := time.Now()
		if err := s.conns[0].ping(); err != nil {
			return nil, fmt.Errorf("ping: %w", err)
		}
		rtt[i] = float64(time.Since(t0)) / 1e3
	}
	slices.Sort(rtt)
	out["server.ping_rtt_p50_us"] = quantile(rtt, 0.5)

	m, gens := newModel(p.seed, w), newGens(w, p.seed)
	plain, err := s.measure(w, gens, m, seconds(p.warmup), p.dur(shareUntraced))
	if err != nil {
		return nil, err
	}
	reg := s.db.EnableMetrics(nil)
	ms, err := s.measure(w, gens, m, 0, p.dur(shareTraced))
	if err != nil {
		return nil, err
	}
	if err := tr.add("tcp", ms.run, p.dur(shareTraced).Seconds()); err != nil {
		return nil, err
	}
	sum := ms.sum
	res.attempted, res.failed = plain.sum.attempted+sum.attempted, plain.sum.failed+sum.failed
	ops := float64(max(1, sum.attempted-sum.failed))
	writes := float64(max(1, sum.mutations))
	io := ms.after.io.Sub(ms.before.io)

	out["trace.overhead_pct"] = 100 * (plain.sum.opsPerS - sum.opsPerS) / plain.sum.opsPerS
	out["driver.opseq_crc"] = float64(opseqCRC(w, p.seed))
	out["driver.fail_frac"] = float64(res.failed) / float64(res.attempted)
	for _, c := range [2]class{classOp, classRead} {
		d, name := sum.dists[c], "driver."+classNames[c]
		out[name+"_n"], out[name+"_p50_us"], out[name+"_p95_us"] = float64(d.n), d.mid, d.p95
		out[name+"_p99_us"], out[name+"_p999_us"], out[name+"_max_us"] = d.p99, d.p999, d.max
	}
	for k := opAppend; k < numKinds; k++ {
		out["driver."+k.String()+"_n"] = float64(sum.kinds[k])
	}
	sum.describe(res.detail, "driver.", classAppend)
	if w.open {
		describeOpen(res.detail, "driver.", ms.run)
	}

	lat := s.srv.LatencySummary()
	out["server.service_p50_us"], out["server.service_p95_us"] = float64(lat.P50Us), float64(lat.P95Us)
	out["server.service_mean_us"] = lat.MeanUs
	out["server.transport_p50_us"] = sum.dists[classOp].mid - float64(lat.P50Us)
	out["server.chunks_per_read"] = sum.chunksPerRead
	out["server.errs"] = float64(s.srv.ServerErrs())

	out["disk.read_calls_per_op"] = float64(io.ReadCalls) / ops
	out["disk.write_calls_per_op"] = float64(io.WriteCalls) / ops
	out["disk.pages_read_per_op"] = float64(io.PagesRead) / ops
	out["disk.pages_written_per_op"] = float64(io.PagesWritten) / ops
	out["disk.barriers_per_write"] = float64(ms.after.barriers-ms.before.barriers) / writes

	hits, misses := float64(ms.after.hits-ms.before.hits), float64(ms.after.misses-ms.before.misses)
	out["buffer.hit_rate"] = hits / math.Max(1, hits+misses)
	out["buffer.evictions_per_op"] = float64(reg.Counter("buf.evictions")) / ops
	out["buffer.flushes_per_op"] = float64(reg.Counter("buf.flushes")) / ops
	wait := reg.LockWaitLatency()
	out["engine.lock_wait_mean_us"] = wait.Mean()
	res.detail["engine.lock_wait_p95_us"] = float64(wait.Quantile(0.95))
	out["filevol.fsyncs_per_write"] = float64(reg.Counter("vol.fsyncs")) / writes
	out["filevol.avg_batch"] = float64(reg.Counter("vol.groupcommit.acks")) / math.Max(1, float64(reg.Counter("vol.groupcommit.batches")))

	data, meta := s.db.SpaceInUse()
	out["buddy.data_pages"], out["buddy.meta_pages"] = float64(data), float64(meta)
	out["buddy.frag_index"] = s.db.LeafFragmentation().Index()

	dur, err := s.verifyDurable(w, p.seed, m)
	out["durability.acked_lost"] = float64(dur.lost)
	if err != nil {
		return res, err
	}

	// Rungs 2 and 3.
	eng, err := replay(w, p, "file", true, []int{2, 1}, tr, "engine")
	if err != nil {
		return res, err
	}
	bare, err := replay(w, p, "file", false, []int{1}, tr, "store")
	if err != nil {
		return res, err
	}
	core, err := replay(w, p, "mem", false, []int{1}, tr, "core")
	if err != nil {
		return res, err
	}
	l1 := sum.dists[classOp].mid
	l2, l2one := eng[0].sum.dists[classOp].mid, eng[1].sum.dists[classOp].mid
	l3, l3mem := bare[0].sum.dists[classOp].mid, core[0].sum.dists[classOp].mid
	out["engine.op_p50_us"], out["engine.read_p50_us"] = l2, eng[0].sum.dists[classRead].mid
	out["engine.scale_2c"] = eng[0].sum.opsPerS / eng[1].sum.opsPerS
	out["engine.overhead_p50_us"] = l2one - l3
	out["store.op_p50_us"], out["store.read_p50_us"] = l3, bare[0].sum.dists[classRead].mid
	out["eos.op_cpu_p50_us"] = l3mem
	out["server.frontend_self_p50_us"] = l1 - l2
	out["engine.self_p50_us"] = l2 - l3
	out["filevol.self_p50_us"] = l3 - l3mem
	eng[0].sum.describe(res.detail, "engine.", classAppend)
	bare[0].sum.describe(res.detail, "store.", classAppend)
	core[0].sum.describe(res.detail, "core.", classAppend)

	// Rung 4, and the three structures side by side.
	scale := math.Min(1, p.seconds/20)
	if err := microWire(out, scale); err != nil {
		return res, err
	}
	if err := microStore(out, p.seed, scale); err != nil {
		return res, err
	}
	if err := microFilevol(out, p.outdir, p.seed, scale); err != nil {
		return res, err
	}
	if err := compareStructures(out, p.seed); err != nil {
		return res, err
	}

	// The residual: how much of rung 3's file time the volume's own costs,
	// measured directly, fail to explain. A call moving k pages is priced
	// at the 4 KB call plus (k-1) pages at the streaming rate.
	n := float64(max(1, bare[0].sum.attempted))
	price := func(calls, pages int64, call4k, perMB float64) float64 {
		perPage := perMB / 256
		return (float64(calls)*call4k/1e3 + float64(pages-calls)*perPage) / n
	}
	predicted := price(bare[0].io.ReadCalls, bare[0].io.PagesRead, out["filevol.pread_4k_ns"], out["filevol.pread_us_per_mb"]) +
		price(bare[0].io.WriteCalls, bare[0].io.PagesWritten, out["filevol.pwrite_4k_ns"], out["filevol.pwrite_us_per_mb"]) +
		float64(bare[0].barriers)/n*out["filevol.fdatasync_p50_us"]
	res.detail["ladder.predicted_io_us"] = predicted
	out["ladder.residual_pct"] = 100 * math.Abs(l3-l3mem-predicted) / l1
	return res, nil
}
