// Package loadgen is the open/closed-loop load generator behind
// cmd/lobload. It drives a lobserve front-end over the wire protocol and
// measures per-request wall-clock latency into HDR histograms.
//
// Two loop disciplines are supported, because they answer different
// questions (Schroeder et al., "Open Versus Closed"):
//
//   - Closed loop: Clients workers each keep exactly one request in
//     flight, so offered load adapts to service rate. Latency here is
//     pure service time; throughput scaling across client counts is the
//     headline number.
//
//   - Open loop: requests are dispatched on a fixed schedule
//     (TargetRate per second) regardless of completions, as arrivals
//     from a large outside population would be. Latency is measured
//     from the request's *scheduled* start, so queueing delay from a
//     server that cannot keep up is charged to the server — the
//     coordinated-omission correction.
//
// Every worker owns its connection, RNG, and histogram; histograms merge
// exactly (element-wise counts), so the merged percentiles are identical
// to a single global recorder without any cross-worker synchronization.
package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lobstore/internal/obs"
	"lobstore/internal/wire"
)

// Mix is an operation mix in relative weights. A zero Mix defaults to
// 80/20 read/append.
type Mix struct {
	Read, Append, Insert, Delete, Stat int
}

func (m Mix) total() int { return m.Read + m.Append + m.Insert + m.Delete + m.Stat }

// Spec describes one load-generation run.
type Spec struct {
	// Addr is the lobserve TCP address.
	Addr string
	// Objects is the number of objects in the working set, named
	// "lg-0".."lg-N-1"; they are created and preloaded before measuring.
	Objects int
	// ObjectBytes is each object's preloaded size.
	ObjectBytes int64
	// Engine/Param configure created objects (wire engine codes).
	Engine byte
	Param  uint32
	// ReadBytes and WriteBytes size read requests and append/insert
	// payloads. Reads stay within the preloaded prefix, so the default
	// mixes (append ≥ delete) keep them valid; out-of-range responses
	// are counted in Result.Errors, not fatal.
	ReadBytes  int
	WriteBytes int
	Mix        Mix
	// Zipf skews key choice with a Zipf(s, v=1) distribution over the
	// object indices when > 1; 0 (or ≤1) means uniform.
	Zipf float64
	// HotFrac sends that fraction of requests to a hot set of HotSet
	// objects (default 1) chosen uniformly; the rest go uniformly to the
	// remainder. Mutually composable with Zipf = 0 only.
	HotFrac float64
	HotSet  int
	// Seed makes key/op sequences reproducible.
	Seed int64
	// Clients is the closed-loop multiprogramming level, and the worker
	// count in open loop.
	Clients int
	// TargetRate, when > 0, switches to open loop at that many requests
	// per second across all workers.
	TargetRate float64
	// Duration is the measured interval (after preload).
	Duration time.Duration
	// SLOMicros is the latency objective used for goodput; 0 disables.
	SLOMicros int64
}

// Result is one run's measurements.
type Result struct {
	Mode             string // "closed" or "open"
	Clients          int
	TargetRate       float64
	ElapsedMs        float64
	Ops              int64
	Errors           int64
	OpsPerSec        float64
	MeanUs           float64
	P50Us            int64
	P95Us            int64
	P99Us            int64
	MaxUs            int64
	SLOUs            int64
	GoodputOpsPerSec float64
}

func (s *Spec) defaults() error {
	if s.Objects <= 0 {
		s.Objects = 16
	}
	if s.ObjectBytes <= 0 {
		s.ObjectBytes = 256 << 10
	}
	if s.ReadBytes <= 0 {
		s.ReadBytes = 4096
	}
	if s.WriteBytes <= 0 {
		s.WriteBytes = 4096
	}
	if s.Mix.total() == 0 {
		s.Mix = Mix{Read: 80, Append: 20}
	}
	if s.Clients <= 0 {
		s.Clients = 1
	}
	if s.Duration <= 0 {
		s.Duration = time.Second
	}
	if s.HotSet <= 0 {
		s.HotSet = 1
	}
	if s.Param == 0 {
		// Engine parameters 0 are rejected server-side for ESM and EOS;
		// fill in the conventional defaults (Starburst's 0 means
		// "allocator max" and stands).
		switch s.Engine {
		case wire.EngineESM:
			s.Param = 4 // leaf pages
		case wire.EngineEOS:
			s.Param = 16 // segment-size threshold
		}
	}
	if int64(s.ReadBytes) > s.ObjectBytes {
		return fmt.Errorf("loadgen: ReadBytes %d exceeds ObjectBytes %d", s.ReadBytes, s.ObjectBytes)
	}
	if s.HotSet >= s.Objects {
		return fmt.Errorf("loadgen: hot set %d must be smaller than the %d-object working set", s.HotSet, s.Objects)
	}
	return nil
}

// worker is one generator goroutine's private state.
type worker struct {
	c     *Client
	r     *rand.Rand
	zipf  *rand.Zipf
	spec  *Spec
	hist  *obs.HDR
	data  []byte
	name  []byte
	ops   int64
	errs  int64
	fatal error
}

func newWorker(spec *Spec, seed int64) (*worker, error) {
	c, err := Dial(spec.Addr)
	if err != nil {
		return nil, err
	}
	w := &worker{
		c:    c,
		r:    rand.New(rand.NewSource(seed)),
		spec: spec,
		hist: obs.NewHDR(),
		data: make([]byte, spec.WriteBytes),
	}
	w.r.Read(w.data) //lobvet:ignore errdiscard — math/rand Read never fails
	if spec.Zipf > 1 {
		w.zipf = rand.NewZipf(w.r, spec.Zipf, 1, uint64(spec.Objects-1))
	}
	return w, nil
}

// key picks the target object index.
func (w *worker) key() int {
	s := w.spec
	switch {
	case w.zipf != nil:
		return int(w.zipf.Uint64())
	case s.HotFrac > 0:
		if w.r.Float64() < s.HotFrac {
			return w.r.Intn(s.HotSet)
		}
		return s.HotSet + w.r.Intn(s.Objects-s.HotSet)
	default:
		return w.r.Intn(s.Objects)
	}
}

// objName formats "lg-<i>" into the worker's name scratch.
func (w *worker) objName(i int) []byte {
	w.name = append(w.name[:0], 'l', 'g', '-')
	if i == 0 {
		return append(w.name, '0')
	}
	var digits [20]byte
	d := len(digits)
	for i > 0 {
		d--
		digits[d] = byte('0' + i%10)
		i /= 10
	}
	w.name = append(w.name, digits[d:]...)
	return w.name
}

// step issues one operation chosen by the mix and returns any transport
// error (server-reported errors are counted, not returned, so a worker
// survives out-of-range responses from delete-containing mixes; a dead
// connection stops it).
func (w *worker) step() error {
	s := w.spec
	name := w.objName(w.key())
	n := w.r.Intn(s.Mix.total())
	var err error
	switch {
	case n < s.Mix.Read:
		off := uint64(0)
		if span := s.ObjectBytes - int64(s.ReadBytes); span > 0 {
			off = uint64(w.r.Int63n(span + 1))
		}
		_, err = w.c.Read(name, off, uint32(s.ReadBytes))
	case n < s.Mix.Read+s.Mix.Append:
		_, err = w.c.Append(name, w.data)
	case n < s.Mix.Read+s.Mix.Append+s.Mix.Insert:
		_, err = w.c.Insert(name, 0, w.data)
	case n < s.Mix.Read+s.Mix.Append+s.Mix.Insert+s.Mix.Delete:
		_, err = w.c.Delete(name, 0, uint64(s.WriteBytes))
	default:
		_, err = w.c.Stat(name)
	}
	w.ops++
	if err != nil {
		var se *ServerError
		if !errors.As(err, &se) {
			return err // transport failure: the connection is gone
		}
		w.errs++
	}
	return nil
}

// Run executes the spec: preload, then the measured loop.
func Run(spec Spec) (*Result, error) {
	if err := spec.defaults(); err != nil {
		return nil, err
	}
	if err := preload(&spec); err != nil {
		return nil, err
	}
	workers := make([]*worker, spec.Clients)
	for i := range workers {
		w, err := newWorker(&spec, spec.Seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		defer w.c.Close() //lobvet:ignore errdiscard — best-effort teardown after the run
		workers[i] = w
	}
	start := obs.WallNow()
	if spec.TargetRate > 0 {
		runOpen(&spec, workers)
	} else {
		runClosed(&spec, workers)
	}
	elapsed := obs.WallNow() - start

	merged := obs.NewHDR()
	var ops, errs int64
	for _, w := range workers {
		if w.fatal != nil {
			return nil, w.fatal
		}
		merged.Merge(w.hist)
		ops += w.ops
		errs += w.errs
	}
	sum := merged.Summary()
	res := &Result{
		Mode:      "closed",
		Clients:   spec.Clients,
		ElapsedMs: float64(elapsed) / 1e3,
		Ops:       ops,
		Errors:    errs,
		OpsPerSec: float64(ops) / (float64(elapsed) / 1e6),
		MeanUs:    sum.MeanUs,
		P50Us:     sum.P50Us,
		P95Us:     sum.P95Us,
		P99Us:     sum.P99Us,
		MaxUs:     sum.MaxUs,
	}
	if spec.TargetRate > 0 {
		res.Mode = "open"
		res.TargetRate = spec.TargetRate
	}
	if spec.SLOMicros > 0 {
		res.SLOUs = spec.SLOMicros
		good := merged.CountAtOrBelow(spec.SLOMicros)
		res.GoodputOpsPerSec = float64(good) / (float64(elapsed) / 1e6)
	}
	return res, nil
}

// preload creates and fills the working set over one connection. Objects
// that already exist (a rerun against a live server) are filled up to
// ObjectBytes only if smaller.
func preload(spec *Spec) error {
	c, err := Dial(spec.Addr)
	if err != nil {
		return err
	}
	defer c.Close() //lobvet:ignore errdiscard — best-effort teardown of the preload connection
	chunk := make([]byte, 64<<10)
	rand.New(rand.NewSource(spec.Seed)).Read(chunk) //lobvet:ignore errdiscard — math/rand Read never fails
	w := &worker{spec: spec}
	for i := 0; i < spec.Objects; i++ {
		name := w.objName(i)
		size, err := c.Stat(name)
		if err != nil {
			if err := c.Create(name, spec.Engine, spec.Param); err != nil {
				return fmt.Errorf("loadgen: creating %s: %w", name, err)
			}
			size = 0
		}
		for int64(size) < spec.ObjectBytes {
			n := spec.ObjectBytes - int64(size)
			if n > int64(len(chunk)) {
				n = int64(len(chunk))
			}
			if size, err = c.Append(name, chunk[:n]); err != nil {
				return fmt.Errorf("loadgen: preloading %s: %w", name, err)
			}
		}
	}
	return nil
}

// runClosed keeps every worker's single request slot full until the
// deadline.
func runClosed(spec *Spec, workers []*worker) {
	deadline := obs.WallNow() + spec.Duration.Microseconds()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				t0 := obs.WallNow()
				if t0 >= deadline {
					return
				}
				if err := w.step(); err != nil {
					w.fatal = err
					return
				}
				w.hist.Observe(obs.WallNow() - t0)
			}
		}(w)
	}
	wg.Wait()
}

// runOpen dispatches request slots on the target-rate schedule into a
// queue the workers drain. Latency is measured from the scheduled start,
// so time spent waiting for a free worker counts against the server.
func runOpen(spec *Spec, workers []*worker) {
	total := int(spec.TargetRate * spec.Duration.Seconds())
	sched := make(chan int64, total+1)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for t0 := range sched {
				if err := w.step(); err != nil {
					w.fatal = err
					// Keep draining so the dispatcher never blocks.
					for range sched {
					}
					return
				}
				w.hist.Observe(obs.WallNow() - t0)
			}
		}(w)
	}
	interval := float64(time.Second.Microseconds()) / spec.TargetRate
	start := obs.WallNow()
	for k := 0; k < total; k++ {
		due := start + int64(float64(k)*interval)
		for {
			now := obs.WallNow()
			if now >= due {
				break
			}
			time.Sleep(time.Duration(due-now) * time.Microsecond)
		}
		sched <- due
	}
	close(sched)
	wg.Wait()
}

// EngineCode translates an engine spec name to its wire code.
func EngineCode(name string) (byte, error) {
	switch name {
	case "esm":
		return wire.EngineESM, nil
	case "starburst":
		return wire.EngineStarburst, nil
	case "eos":
		return wire.EngineEOS, nil
	}
	return 0, fmt.Errorf("loadgen: unknown engine %q", name)
}
