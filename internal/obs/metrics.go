package obs

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Histogram is a fixed-bucket histogram over int64 samples. Bounds are
// inclusive upper edges; samples above the last bound land in a final
// overflow bucket.
type Histogram struct {
	Name   string
	Unit   string
	Bounds []int64
	Counts []int64 // len(Bounds)+1
	Sum    int64
	N      int64
	Max    int64
}

// NewHistogram creates a histogram with the given inclusive upper bounds,
// which must be strictly increasing.
func NewHistogram(name, unit string, bounds []int64) *Histogram {
	return &Histogram{
		Name:   name,
		Unit:   unit,
		Bounds: bounds,
		Counts: make([]int64, len(bounds)+1),
	}
}

// Observe adds one sample.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.Bounds), func(i int) bool { return v <= h.Bounds[i] })
	h.Counts[i]++
	h.Sum += v
	h.N++
	if v > h.Max {
		h.Max = v
	}
}

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// bucketLabel names bucket i, e.g. "<=4" or ">512".
func (h *Histogram) bucketLabel(i int) string {
	if i < len(h.Bounds) {
		return "<=" + strconv.FormatInt(h.Bounds[i], 10)
	}
	return ">" + strconv.FormatInt(h.Bounds[len(h.Bounds)-1], 10)
}

// Default bucket edges.
var (
	ioSizeBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}
	seekBounds   = []int64{0, 1, 8, 64, 512, 4096, 32768}
	// latencyBounds is in µs: span durations are recorded at full µs
	// resolution (an earlier version floored them to whole ms, losing every
	// sub-millisecond span to bucket 0).
	latencyBounds = []int64{100, 500, 1000, 5000, 10_000, 50_000, 100_000,
		500_000, 1_000_000, 5_000_000, 20_000_000} // µs
	depthBounds = []int64{1, 2, 3, 4, 6, 8}
	batchBounds = []int64{1, 2, 4, 8, 16, 32, 64}
)

// Metrics is an aggregating sink: counters plus fixed-bucket histograms of
// I/O call size, seek distance, tree descent depth and per-operation
// simulated latency, and per-operation HDR histograms of both simulated and
// wall-clock span latency in µs. One registry may be shared by several
// databases (the harness shares one across an experiment's runs). Recording
// and the read/report methods are safe for concurrent use; the exported
// histogram fields must only be read directly once recording has quiesced.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64

	IOSize     *Histogram // pages moved per I/O call
	Seek       *Histogram // pages of head movement per I/O call
	Depth      *Histogram // index pages touched per tree descent
	GroupBatch *Histogram // barriers acknowledged per group-commit flush
	OpLat      [numOps]*Histogram
	// OpSim/OpWall track span latency percentiles per operation: simulated
	// µs (Event.Aux1) and wall-clock µs (Event.Wall). Created together with
	// the matching OpLat entry; wall histograms only fill when the span
	// carried a positive wall duration (sub-µs spans are not recorded).
	OpSim   [numOps]*HDR
	OpWall  [numOps]*HDR
	created [numOps]bool

	// Concurrent-engine latency HDRs, in wall-clock µs. LockWait is the
	// time a client spent blocked acquiring an object lock; EpochHold is
	// the time a retired free batch waited for the last snapshot reader of
	// its epoch to drain before its pages could be reclaimed. Both are fed
	// directly by the engine (there is no event kind for them: they are
	// wall-clock facts of the concurrent layer, not of the simulation).
	LockWait  *HDR
	EpochHold *HDR
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters:   make(map[string]int64),
		IOSize:     NewHistogram("io.size", "pages", ioSizeBounds),
		Seek:       NewHistogram("io.seek", "pages", seekBounds),
		Depth:      NewHistogram("tree.descend.depth", "pages", depthBounds),
		GroupBatch: NewHistogram("vol.groupcommit.batch", "acks", batchBounds),
		LockWait:   NewHDR(),
		EpochHold:  NewHDR(),
	}
}

// ObserveLockWait records one object-lock acquisition that blocked for the
// given wall-clock µs (0 records an uncontended acquisition).
func (m *Metrics) ObserveLockWait(us int64) {
	m.mu.Lock()
	m.LockWait.Observe(us)
	m.mu.Unlock()
}

// ObserveEpochHold records that a retired free batch waited the given
// wall-clock µs before epoch-based reclamation could apply it.
func (m *Metrics) ObserveEpochHold(us int64) {
	m.mu.Lock()
	m.EpochHold.Observe(us)
	m.mu.Unlock()
}

// LockWaitLatency returns a snapshot of the object-lock wait HDR, safe to
// read while recording continues.
func (m *Metrics) LockWaitLatency() *HDR {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.LockWait.Clone()
}

// Add bumps a named counter.
func (m *Metrics) Add(name string, delta int64) {
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// add bumps a counter with m.mu held.
func (m *Metrics) add(name string, delta int64) { m.counters[name] += delta }

// Counter returns a named counter (0 when never bumped).
func (m *Metrics) Counter(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// CounterNames returns every counter name in sorted order.
func (m *Metrics) CounterNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sortedCounters()
}

// opLatency lazily creates the per-operation latency histograms.
func (m *Metrics) opLatency(op Op) *Histogram {
	if !m.created[op] {
		m.OpLat[op] = NewHistogram("op."+op.String()+".latency", "µs", latencyBounds)
		m.OpSim[op] = NewHDR()
		m.OpWall[op] = NewHDR()
		m.created[op] = true
	}
	return m.OpLat[op]
}

// Record implements Sink.
func (m *Metrics) Record(e Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch e.Kind {
	case KindSpanBegin:
		m.add("op."+e.Op.String()+".count", 1)
	case KindSpanEnd:
		m.opLatency(e.Op).Observe(e.Aux1) // full µs resolution
		m.OpSim[e.Op].Observe(e.Aux1)
		if e.Wall > 0 {
			m.OpWall[e.Op].Observe(e.Wall)
		}
		if e.Err != "" {
			m.add("op."+e.Op.String()+".errors", 1)
		}
	case KindIORead:
		m.add("io.read.calls", 1)
		m.add("io.read.pages", int64(e.Pages))
		m.add("io.seek.pages", e.Aux1)
		m.IOSize.Observe(int64(e.Pages))
		m.Seek.Observe(e.Aux1)
	case KindIOWrite:
		m.add("io.write.calls", 1)
		m.add("io.write.pages", int64(e.Pages))
		m.add("io.seek.pages", e.Aux1)
		m.IOSize.Observe(int64(e.Pages))
		m.Seek.Observe(e.Aux1)
	case KindIOError:
		m.add("io.errors", 1)
	case KindBufHit:
		// Run fetches carry the run length; the pool counts per page.
		m.add("buf.hits", pagesOr1(e))
	case KindBufMiss:
		m.add("buf.misses", pagesOr1(e))
	case KindBufEvict:
		m.add("buf.evictions", 1)
	case KindBufFlush:
		m.add("buf.flushes", 1)
	case KindBufFetchRun:
		m.add("buf.runfetches", 1)
	case KindAlloc:
		m.add("buddy.allocs", 1)
		m.add("buddy.alloc.pages", int64(e.Pages))
	case KindFree:
		m.add("buddy.frees", 1)
		m.add("buddy.free.pages", int64(e.Pages))
	case KindSplit:
		m.add("buddy.splits", 1)
	case KindCoalesce:
		m.add("buddy.coalesces", 1)
	case KindDescend:
		m.add("tree.descents", 1)
		m.Depth.Observe(e.Aux1)
	case KindLeafSplit:
		m.add("leaf.splits", 1)
	case KindLeafMerge:
		m.add("leaf.merges", 1)
	case KindExtentDouble:
		m.add("extent.doublings", 1)
	case KindVolGroupCommit:
		// Pages = batches in the delta, Aux1 = average acks/batch, Aux2 =
		// total barriers acknowledged (see the event field table).
		m.add("vol.groupcommit.batches", int64(e.Pages))
		m.add("vol.groupcommit.acks", e.Aux2)
		m.GroupBatch.Observe(e.Aux1)
	case KindVolFsync:
		m.add("vol.fsyncs", e.Aux1)
	}
}

// pagesOr1 returns the event's page count, defaulting to one page.
func pagesOr1(e Event) int64 {
	if e.Pages > 0 {
		return int64(e.Pages)
	}
	return 1
}

// Close implements Sink.
func (m *Metrics) Close() error { return nil }

// HitRate returns the buffer pool hit fraction seen so far (0 when no
// buffer traffic was recorded).
func (m *Metrics) HitRate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hitRate()
}

// hitRate computes the hit fraction with m.mu held.
func (m *Metrics) hitRate() float64 {
	h, mi := m.counters["buf.hits"], m.counters["buf.misses"]
	if h+mi == 0 {
		return 0
	}
	return float64(h) / float64(h+mi)
}

func (m *Metrics) sortedCounters() []string {
	names := make([]string, 0, len(m.counters))
	for n := range m.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Ops returns every operation that opens spans, in enum order. External
// packages iterate with it instead of reaching for the unexported bound.
func Ops() []Op {
	ops := make([]Op, 0, numOps-1)
	for op := Op(1); op < numOps; op++ {
		ops = append(ops, op)
	}
	return ops
}

// SimLatency returns a snapshot of the simulated-latency HDR for op, or nil
// when the operation never completed a span. The copy is safe to read and
// merge while recording continues.
func (m *Metrics) SimLatency(op Op) *HDR {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(op) >= int(numOps) || !m.created[op] {
		return nil
	}
	return m.OpSim[op].Clone()
}

// WallLatency returns a snapshot of the wall-clock-latency HDR for op, or
// nil when the operation never completed a span.
func (m *Metrics) WallLatency(op Op) *HDR {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(op) >= int(numOps) || !m.created[op] {
		return nil
	}
	return m.OpWall[op].Clone()
}

func (m *Metrics) histograms() []*Histogram {
	hs := []*Histogram{m.IOSize, m.Seek, m.Depth, m.GroupBatch}
	for op := Op(0); op < numOps; op++ {
		if m.created[op] {
			hs = append(hs, m.OpLat[op])
		}
	}
	return hs
}

// WriteText renders the registry as aligned human-readable text.
func (m *Metrics) WriteText(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := fmt.Fprintf(w, "counters:\n"); err != nil {
		return err
	}
	for _, n := range m.sortedCounters() {
		if _, err := fmt.Fprintf(w, "  %-24s %12d\n", n, m.counters[n]); err != nil {
			return err
		}
	}
	if h, mi := m.counters["buf.hits"], m.counters["buf.misses"]; h+mi > 0 {
		if _, err := fmt.Fprintf(w, "  %-24s %11.1f%%\n", "buf.hitrate", 100*m.hitRate()); err != nil {
			return err
		}
	}
	for _, h := range m.histograms() {
		if h.N == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "histogram %s (%s): n=%d mean=%.1f max=%d\n",
			h.Name, h.Unit, h.N, h.Mean(), h.Max); err != nil {
			return err
		}
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "  %-10s %12d\n", h.bucketLabel(i), c); err != nil {
				return err
			}
		}
	}
	for op := Op(0); op < numOps; op++ {
		if !m.created[op] || m.OpSim[op].N() == 0 {
			continue
		}
		s := m.OpSim[op].Summary()
		if _, err := fmt.Fprintf(w, "latency op.%s sim[µs]: n=%d p50=%d p90=%d p95=%d p99=%d p999=%d max=%d\n",
			op.String(), s.N, s.P50Us, s.P90Us, s.P95Us, s.P99Us, s.P999Us, s.MaxUs); err != nil {
			return err
		}
		if m.OpWall[op].N() > 0 {
			ws := m.OpWall[op].Summary()
			if _, err := fmt.Fprintf(w, "latency op.%s wall[µs]: n=%d p50=%d p90=%d p95=%d p99=%d p999=%d max=%d\n",
				op.String(), ws.N, ws.P50Us, ws.P90Us, ws.P95Us, ws.P99Us, ws.P999Us, ws.MaxUs); err != nil {
				return err
			}
		}
	}
	for _, eh := range m.engineHDRs() {
		if eh.h.N() == 0 {
			continue
		}
		s := eh.h.Summary()
		if _, err := fmt.Fprintf(w, "latency %s wall[µs]: n=%d p50=%d p90=%d p95=%d p99=%d p999=%d max=%d\n",
			eh.name, s.N, s.P50Us, s.P90Us, s.P95Us, s.P99Us, s.P999Us, s.MaxUs); err != nil {
			return err
		}
	}
	return nil
}

// engineHDRs lists the concurrent-engine latency histograms with their
// report names. m.mu held.
func (m *Metrics) engineHDRs() []struct {
	name string
	h    *HDR
} {
	return []struct {
		name string
		h    *HDR
	}{
		{"engine.lockwait", m.LockWait},
		{"engine.epochhold", m.EpochHold},
	}
}

// WriteCSV renders the registry as CSV rows: type,name,bucket,value.
func (m *Metrics) WriteCSV(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"type", "name", "bucket", "value"}); err != nil {
		return err
	}
	for _, n := range m.sortedCounters() {
		if err := cw.Write([]string{"counter", n, "", strconv.FormatInt(m.counters[n], 10)}); err != nil {
			return err
		}
	}
	for _, h := range m.histograms() {
		if h.N == 0 {
			continue
		}
		for i, c := range h.Counts {
			if err := cw.Write([]string{"hist", h.Name, h.bucketLabel(i), strconv.FormatInt(c, 10)}); err != nil {
				return err
			}
		}
		if err := cw.Write([]string{"hist", h.Name, "sum", strconv.FormatInt(h.Sum, 10)}); err != nil {
			return err
		}
		if err := cw.Write([]string{"hist", h.Name, "count", strconv.FormatInt(h.N, 10)}); err != nil {
			return err
		}
	}
	for op := Op(0); op < numOps; op++ {
		if !m.created[op] || m.OpSim[op].N() == 0 {
			continue
		}
		clocks := []struct {
			name string
			h    *HDR
		}{{"sim", m.OpSim[op]}, {"wall", m.OpWall[op]}}
		for _, c := range clocks {
			if c.h.N() == 0 {
				continue
			}
			s := c.h.Summary()
			rows := []struct {
				q string
				v int64
			}{
				{"n", s.N}, {"p50", s.P50Us}, {"p90", s.P90Us}, {"p95", s.P95Us},
				{"p99", s.P99Us}, {"p999", s.P999Us}, {"max", s.MaxUs},
			}
			name := "op." + op.String() + "." + c.name
			for _, r := range rows {
				if err := cw.Write([]string{"latency", name, r.q, strconv.FormatInt(r.v, 10)}); err != nil {
					return err
				}
			}
		}
	}
	for _, eh := range m.engineHDRs() {
		if eh.h.N() == 0 {
			continue
		}
		s := eh.h.Summary()
		rows := []struct {
			q string
			v int64
		}{
			{"n", s.N}, {"p50", s.P50Us}, {"p90", s.P90Us}, {"p95", s.P95Us},
			{"p99", s.P99Us}, {"p999", s.P999Us}, {"max", s.MaxUs},
		}
		for _, r := range rows {
			if err := cw.Write([]string{"latency", eh.name + ".wall", r.q, strconv.FormatInt(r.v, 10)}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
