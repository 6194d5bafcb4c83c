package harness

import (
	"fmt"
	"io"
	"sync"

	"lobstore"
	"lobstore/internal/obs"
	"lobstore/internal/workload"
)

// Config scales the experiments. DefaultConfig reproduces the paper's
// setup; QuickConfig shrinks everything for smoke runs.
type Config struct {
	// DB holds the simulated system parameters (paper Table 1).
	DB lobstore.Config
	// ObjectBytes is the object size under test (paper: 10 MB).
	ObjectBytes int64
	// MixOps is the length of each §4.4 random operation run.
	MixOps int
	// SampleEvery sets the mark spacing on the figure series (paper: the
	// mark at 10,000 operations averages the previous 2,000).
	SampleEvery int
	// BuildChunk is the append size used when an experiment just needs an
	// object (utilization and cost runs); Figures 5-6 sweep their own.
	BuildChunk int
	// StarburstUpdateOps and StarburstReadOps bound the (expensive)
	// Starburst measurements for Tables 2-3.
	StarburstUpdateOps int
	StarburstReadOps   int
	// Seed drives all workload randomness. Each cell's generator is
	// derived from (Seed, workload stream); see seedFor.
	Seed int64
}

// DefaultConfig reproduces the paper's experimental scale.
func DefaultConfig() Config {
	return Config{
		DB:                 lobstore.DefaultConfig(),
		ObjectBytes:        10 << 20,
		MixOps:             10_000,
		SampleEvery:        2_000,
		BuildChunk:         256 << 10,
		StarburstUpdateOps: 20,
		StarburstReadOps:   400,
		Seed:               1,
	}
}

// QuickConfig shrinks the experiments ~10x for smoke runs and tests.
func QuickConfig() Config {
	c := DefaultConfig()
	c.ObjectBytes = 1 << 20
	c.MixOps = 1_000
	c.SampleEvery = 200
	c.StarburstUpdateOps = 6
	c.StarburstReadOps = 60
	return c
}

// Runner executes experiments. Every expensive computation is a Cell whose
// result lands in a single-flight cache, so the utilization, read-cost,
// insert-cost and delete-cost figures extracted from the same §4.4 run are
// computed once — and so the scheduler can execute cells concurrently
// (Precompute) before the sequential table assembly.
type Runner struct {
	Cfg Config
	// Log, when non-nil, receives one progress line per run. Lines are
	// written atomically; under a parallel schedule their order follows
	// cell completion, not declaration.
	Log io.Writer
	// Observe, when non-nil, is called on every database the runner opens,
	// before any workload touches it. lobbench uses it to attach trace and
	// metrics sinks to all the databases behind an experiment. Under a
	// parallel schedule it is called from worker goroutines; the observers
	// it attaches must be goroutine-safe (the obs event layer is).
	Observe func(*lobstore.DB)

	// logMu is a pointer because cells with telemetry run on shallow copies
	// of the runner (see cell); all copies must share one log lock.
	logMu *sync.Mutex
	cells *cellCache
	// tel, when non-nil, collects per-cell telemetry. cellTel is set only on
	// the per-cell derived runner, pointing at the running cell's slot.
	tel     *Telemetry
	cellTel *CellTelemetry
}

// NewRunner creates a runner over cfg.
func NewRunner(cfg Config) *Runner {
	return &Runner{Cfg: cfg, logMu: &sync.Mutex{}, cells: newCellCache()}
}

// cell computes c through the runner's single-flight cache. With telemetry
// enabled the computation runs on a shallow copy of the runner carrying the
// cell's telemetry slot, so open can attach per-cell sinks, and the whole
// computation is timed on the wall clock.
func (r *Runner) cell(c Cell) (any, error) {
	return r.cells.do(c.Key, func() (any, error) {
		if r.tel == nil {
			return c.Run(r)
		}
		ct := r.tel.cellTelemetry(c.Key)
		derived := *r
		derived.cellTel = ct
		start := obs.WallNow()
		v, err := c.Run(&derived)
		ct.setWall(obs.WallNow() - start)
		return v, err
	})
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log == nil {
		return
	}
	r.logMu.Lock()
	defer r.logMu.Unlock()
	fmt.Fprintf(r.Log, format+"\n", args...)
}

// open creates a database and runs the Observe hook, so attached sinks see
// every database an experiment touches. With telemetry enabled the running
// cell's metrics registry is attached too.
func (r *Runner) open(cfg lobstore.Config) (*lobstore.DB, error) {
	db, err := lobstore.Open(cfg)
	if err != nil {
		return nil, err
	}
	if r.Observe != nil {
		r.Observe(db)
	}
	if r.cellTel != nil {
		db.EnableMetrics(r.cellTel.Metrics)
	}
	return db, nil
}

// hitRate formats a database's buffer pool hit rate for a log line.
func hitRate(db *lobstore.DB) string {
	hits, misses := db.PoolHitRate()
	if hits+misses == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
}

// engineSpec names one storage configuration under test.
type engineSpec struct {
	name  string // column label, e.g. "ESM-4" or "Starburst"
	kind  string // "esm", "starburst", "eos"
	param int    // leaf pages (esm) or threshold (eos)
}

func (r *Runner) newObject(db *lobstore.DB, e engineSpec) (lobstore.Object, error) {
	switch e.kind {
	case "esm":
		return db.NewESM(e.param)
	case "eos":
		return db.NewEOS(e.param)
	case "starburst":
		return db.NewStarburst(0)
	default:
		return nil, fmt.Errorf("harness: unknown engine %q", e.kind)
	}
}

var (
	esmSpecs = []engineSpec{
		{"ESM-1", "esm", 1}, {"ESM-4", "esm", 4}, {"ESM-16", "esm", 16}, {"ESM-64", "esm", 64},
	}
	eosSpecs = []engineSpec{
		{"EOS-1", "eos", 1}, {"EOS-4", "eos", 4}, {"EOS-16", "eos", 16}, {"EOS-64", "eos", 64},
	}
	starburstSpec = engineSpec{"Starburst", "starburst", 0}
)

// buildResult is a Figure 5/6 cell: build an object with chunk-sized
// appends, then scan it with chunk-sized reads.
type buildResult struct {
	buildSeconds float64
	scanSeconds  float64
}

// buildCell names one Figure 5/6 (engine, chunk) combination.
func buildCell(e engineSpec, chunk int) Cell {
	return Cell{
		Key: fmt.Sprintf("build/%s/%s/%d", e.kind, e.name, chunk),
		Run: cellFn(func(r *Runner) (buildResult, error) {
			return r.computeBuildScan(e, chunk)
		}),
	}
}

// buildAndScan returns the cached Figure 5/6 cell result.
func (r *Runner) buildAndScan(e engineSpec, chunk int) (buildResult, error) {
	return cellResult[buildResult](r, buildCell(e, chunk))
}

// computeBuildScan runs one Figure 5/6 cell on a fresh database.
func (r *Runner) computeBuildScan(e engineSpec, chunk int) (buildResult, error) {
	db, err := r.open(r.Cfg.DB)
	if err != nil {
		return buildResult{}, err
	}
	obj, err := r.newObject(db, e)
	if err != nil {
		return buildResult{}, err
	}
	start := db.Now()
	if err := workload.Build(obj, r.Cfg.ObjectBytes, chunk); err != nil {
		return buildResult{}, fmt.Errorf("build %s chunk=%d: %w", e.name, chunk, err)
	}
	build := (db.Now() - start).Seconds()
	start = db.Now()
	if err := workload.Scan(obj, chunk); err != nil {
		return buildResult{}, fmt.Errorf("scan %s chunk=%d: %w", e.name, chunk, err)
	}
	scan := (db.Now() - start).Seconds()
	res := buildResult{buildSeconds: build, scanSeconds: scan}
	r.logf("build+scan %-10s chunk=%-8s build=%7.1fs scan=%7.1fs hit=%s",
		e.name, sizeLabel(int64(chunk)), build, scan, hitRate(db))
	return res, nil
}

// mixSeries holds the sampled series of one §4.4 run: the source of the
// Figure 7-12 data points.
type mixSeries struct {
	ops      []int     // operation count at each mark
	util     []float64 // utilization ratio at the mark
	readMs   []float64 // average read cost since the previous mark
	insertMs []float64
	deleteMs []float64
}

// mixCell names one §4.4 random-mix run: engine × mean op size. All mix
// cells share the "mix" workload stream so every engine of a figure faces
// the same operation sequence (the paper's paired comparison).
func mixCell(e engineSpec, meanOp int) Cell {
	return Cell{
		Key: fmt.Sprintf("mix/%s/%d/%d", e.name, e.param, meanOp),
		Run: cellFn(func(r *Runner) (*mixSeries, error) {
			return r.computeMix(e, meanOp)
		}),
	}
}

// runMix returns the cached series of one random-mix run.
func (r *Runner) runMix(e engineSpec, meanOp int) (*mixSeries, error) {
	return cellResult[*mixSeries](r, mixCell(e, meanOp))
}

// computeMix executes one random-mix run on a fresh database.
func (r *Runner) computeMix(e engineSpec, meanOp int) (*mixSeries, error) {
	db, err := r.open(r.Cfg.DB)
	if err != nil {
		return nil, err
	}
	obj, err := r.newObject(db, e)
	if err != nil {
		return nil, err
	}
	if err := workload.Build(obj, r.Cfg.ObjectBytes, r.Cfg.BuildChunk); err != nil {
		return nil, err
	}
	mix := &workload.Mix{
		Obj:        obj,
		Rng:        r.rng("mix"),
		MeanOpSize: meanOp,
	}
	s := &mixSeries{}
	var sums [3]float64
	var counts [3]int
	for i := 1; i <= r.Cfg.MixOps; i++ {
		before := db.Stats()
		kind, err := mix.Step()
		if err != nil {
			return nil, fmt.Errorf("mix %s mean=%d op %d: %w", e.name, meanOp, i, err)
		}
		cost := db.Stats().Sub(before).Time.Seconds() * 1000
		sums[kind] += cost
		counts[kind]++
		if i%r.Cfg.SampleEvery == 0 {
			s.ops = append(s.ops, i)
			s.util = append(s.util, obj.Utilization().Ratio())
			s.readMs = append(s.readMs, avg(sums[workload.Read], counts[workload.Read]))
			s.insertMs = append(s.insertMs, avg(sums[workload.Insert], counts[workload.Insert]))
			s.deleteMs = append(s.deleteMs, avg(sums[workload.Delete], counts[workload.Delete]))
			sums = [3]float64{}
			counts = [3]int{}
		}
	}
	last := len(s.ops) - 1
	r.logf("mix %-6s mean=%-7s util=%5.1f%% read=%6.1fms ins=%8.1fms del=%8.1fms hit=%s",
		e.name, sizeLabel(int64(meanOp)), 100*s.util[last], s.readMs[last], s.insertMs[last], s.deleteMs[last], hitRate(db))
	return s, nil
}

func avg(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// meanOpSizes are the paper's operation sizes (§4.4).
var meanOpSizes = []int{100, 10_000, 100_000}

// appendSizesKB is the exact Figure 5 horizontal axis (footnote 2).
var appendSizesKB = []int{3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 50, 64, 100, 128, 200, 256, 512}
