package main

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"lobstore"
)

// params are one invocation's knobs.
type params struct {
	seed    int64
	seconds float64 // measured time
	warmup  float64
	outdir  string
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// dur is the given share of the measured seconds.
func (p params) dur(share float64) time.Duration { return seconds(share * p.seconds) }

// windows is how many equal windows a run of the given length is cut into
// for the medians: about one a second.
func windows(seconds float64) int { return max(1, int(seconds+0.5)) }

// setupRepeats is how often set-up runs so setup_s can be a median.
const setupRepeats = 5

// counters is what the store's exported counters read at one instant.
type counters struct {
	io           lobstore.Stats
	barriers     int64
	hits, misses int64
}

func snapshot(db *lobstore.DB) counters {
	c := counters{io: db.Stats()}
	c.barriers, _ = db.SyncBarriers() //lobvet:ignore errdiscard — fails only on the memory backend, which has no barriers
	c.hits, c.misses = db.PoolHitRate()
	return c
}

// drive runs the workload's loop over TCP for d.
func (s *stack) drive(w workload, gens []*gen, m *model, d time.Duration) (*run, error) {
	if w.open {
		return openLoop(gens, s.conns, m, openRate, d)
	}
	execs := make([]executor, len(s.conns))
	for i, c := range s.conns {
		execs[i] = c
	}
	return closedLoop(w, gens, execs, m, d)
}

func newGens(w workload, seed int64) []*gen {
	gens := make([]*gen, clients)
	for c := range gens {
		gens[c] = w.newGen(seed, c)
	}
	return gens
}

func failures(r *run) int {
	n := 0
	for _, cs := range r.samples {
		for _, x := range cs {
			if !x.ok {
				n++
			}
		}
	}
	return n
}

// result is what one run of one workload reports.
type result struct {
	attempted, failed int
	metrics           map[string]float64 // the declared metrics of the run's mode
	detail            map[string]float64 // everything else worth printing
	spread            map[string]float64 // window-to-window spread of end-to-end metrics
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, detail: map[string]float64{}, spread: map[string]float64{}}
}

// measured is the end-to-end phase shared by both modes: warm up, measure
// with counters read on either side, and leave the stack running.
type measured struct {
	sum           summary
	before, after counters
	run           *run
}

func (s *stack) measure(w workload, gens []*gen, m *model, warmup, d time.Duration) (*measured, error) {
	warm, err := s.drive(w, gens, m, warmup)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// Sizing guard: a store that fails requests serves them fast, so a run
	// that fails during warm-up would report a throughput gain.
	if n := failures(warm); n > 0 {
		return nil, fmt.Errorf("warm-up: %d failed requests", n)
	}
	ms := &measured{before: snapshot(s.db)}
	if ms.run, err = s.drive(w, gens, m, d); err != nil {
		return nil, err
	}
	ms.after = snapshot(s.db)
	ms.sum = summarize(ms.run, d.Seconds(), windows(d.Seconds()))
	return ms, nil
}

// endToEnd is the untraced run: set-up (several times, for a median), warm-up,
// the measured window, then the untimed integrity and durability checks.
func endToEnd(w workload, p params) (_ *result, err error) {
	var (
		s      *stack
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			if err := errors.Join(s.stop(), os.RemoveAll(s.dir)); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if s, err = startStack(p.outdir, w, p.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { err = errors.Join(err, s.stop(), os.RemoveAll(s.dir)) }()
	preloaded := snapshot(s.db)

	m, gens := newModel(p.seed, w), newGens(w, p.seed)
	ms, err := s.measure(w, gens, m, seconds(p.warmup), seconds(p.seconds))
	if err != nil {
		return nil, err
	}
	res := newResult()
	sum := ms.sum
	res.attempted, res.failed = sum.attempted, sum.failed

	// write_amp: pages the store wrote per byte the user handed it, over the
	// measured window; the read-only workloads write nothing there, so they
	// report the preload's, which is the only writing they ever do.
	written, user := ms.after.io.PagesWritten-ms.before.io.PagesWritten, sum.userWritten
	if user == 0 {
		written, user = preloaded.io.PagesWritten, int64(w.objects)*w.objBytes
	}
	data, meta := s.db.SpaceInUse()
	var live int64
	for i := 0; i < w.objects; i++ {
		live += m.size(i)
	}
	e := res.metrics
	e["setup_s"] = median(setups)
	e["ops_per_s"] = sum.opsPerS
	e["mb_per_s"] = sum.mbPerS
	e["op_p90_us"] = sum.dists[classOp].p90
	e["slo_ok_frac"] = sum.sloOkFrac
	e["write_amp"] = float64(written*pageSize) / float64(user)
	res.detail["live_space_amp"] = float64((data+meta)*pageSize) / float64(live)
	for name, v := range sum.windows {
		res.spread[name] = relSpread(v)
	}
	res.spread["setup_s"] = relSpread(setups)
	sum.describe(res.detail, "", classOp)
	res.detail["fail_frac"] = float64(sum.failed) / float64(sum.attempted)
	if w.open {
		describeOpen(res.detail, "", ms.run)
	}

	// space_amp: bytes the store occupies after a clean shutdown, which trims
	// growth slack, per live byte. The untrimmed figure is live_space_amp.
	d, err := s.verifyDurable(w, p.seed, m)
	e["space_amp"] = float64(d.pages*pageSize) / float64(live)
	res.detail["durability.acked_lost"] = float64(d.lost)
	return res, err
}

// describe writes the latency figures of the classes from first on that the
// run has samples of, under prefix.
func (s *summary) describe(out map[string]float64, prefix string, first class) {
	for c := first; c < numClasses; c++ {
		d := s.dists[c]
		if d.n == 0 {
			continue
		}
		name := prefix + classNames[c]
		out[name+"_n"] = float64(d.n)
		out[name+"_p50_us"], out[name+"_p90_us"], out[name+"_p95_us"] = d.p50, d.p90, d.p95
		out[name+"_p99_us"], out[name+"_p999_us"], out[name+"_max_us"] = d.p99, d.p999, d.max
	}
}

// describeOpen adds the open-loop dispatcher's own figures.
func describeOpen(out map[string]float64, prefix string, r *run) {
	late := make([]float64, len(r.late))
	for i, v := range r.late {
		late[i] = float64(v) / 1e3
	}
	slices.Sort(late)
	out[prefix+"sched_late_p95_us"] = quantile(late, 0.95)
	out[prefix+"backlog_max"] = float64(r.backlogMax)
}
