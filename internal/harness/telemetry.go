package harness

import (
	"sort"
	"sync"

	"lobstore/internal/obs"
)

// Telemetry collects per-cell wall-clock and latency telemetry. When enabled
// (Runner.EnableTelemetry) every cell runs with its own obs.Metrics registry
// attached to every database it opens, plus a wall-clock timing of the whole
// cell via obs.WallNow.
//
// Telemetry only observes: sinks see simulated time but never advance it,
// and the wall clock feeds nothing back into the simulation, so enabling it
// leaves every experiment table byte-identical (pinned by a harness test).
type Telemetry struct {
	mu    sync.Mutex
	cells map[string]*CellTelemetry
}

// CellTelemetry is one cell's telemetry: a private metrics registry (per-op
// simulated and wall-clock latency HDRs among them) and the wall-clock time
// the cell took to compute.
type CellTelemetry struct {
	Key     string
	Metrics *obs.Metrics

	mu     sync.Mutex
	wallUs int64
}

func (c *CellTelemetry) setWall(us int64) {
	c.mu.Lock()
	c.wallUs = us
	c.mu.Unlock()
}

// WallUs returns the cell's wall-clock computation time in µs (0 while the
// cell is still running).
func (c *CellTelemetry) WallUs() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wallUs
}

// MergedWall merges the cell's per-op wall-clock latency HDRs into one
// all-operations histogram.
func (c *CellTelemetry) MergedWall() *obs.HDR { return mergedWall([]*CellTelemetry{c}) }

// EnableTelemetry switches on per-cell telemetry for every cell the runner
// computes from now on and returns the collector (idempotent).
func (r *Runner) EnableTelemetry() *Telemetry {
	if r.tel == nil {
		r.tel = &Telemetry{cells: make(map[string]*CellTelemetry)}
	}
	return r.tel
}

// cellTelemetry returns (creating on first use) the telemetry slot for key.
func (t *Telemetry) cellTelemetry(key string) *CellTelemetry {
	t.mu.Lock()
	defer t.mu.Unlock()
	ct, ok := t.cells[key]
	if !ok {
		ct = &CellTelemetry{Key: key, Metrics: obs.NewMetrics()}
		t.cells[key] = ct
	}
	return ct
}

// Cell returns the telemetry recorded for one cell key, or nil.
func (t *Telemetry) Cell(key string) *CellTelemetry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cells[key]
}

// Cells returns every cell's telemetry sorted by key, so reports built from
// it are deterministic regardless of the schedule that filled it.
func (t *Telemetry) Cells() []*CellTelemetry {
	t.mu.Lock()
	defer t.mu.Unlock()
	cts := make([]*CellTelemetry, 0, len(t.cells))
	for _, ct := range t.cells {
		cts = append(cts, ct)
	}
	sort.Slice(cts, func(i, j int) bool { return cts[i].Key < cts[j].Key })
	return cts
}

// ExperimentWall merges the wall-clock latency HDRs of every op of every
// cell behind the named experiment. HDR merging is associative and
// commutative, so the result is independent of cell completion order. Cells
// the runner never computed (e.g. the experiment was not run) contribute
// nothing; experiments without a cell decomposition yield an empty HDR.
func (t *Telemetry) ExperimentWall(name string) (*obs.HDR, error) {
	plan, err := CellPlan([]string{name})
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	var cts []*CellTelemetry
	for _, c := range plan {
		if ct, ok := t.cells[c.Key]; ok {
			cts = append(cts, ct)
		}
	}
	t.mu.Unlock()
	return mergedWall(cts), nil
}

// mergedWall folds every op's wall-clock HDR of every given cell into one.
func mergedWall(cts []*CellTelemetry) *obs.HDR {
	h := obs.NewHDR()
	for _, ct := range cts {
		for _, op := range obs.Ops() {
			h.Merge(ct.Metrics.WallLatency(op)) // nil when op unused: no-op
		}
	}
	return h
}
