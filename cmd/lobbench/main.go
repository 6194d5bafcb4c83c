// Command lobbench regenerates the tables and figures of Biliris' SIGMOD
// 1992 study "The Performance of Three Database Storage Structures for
// Managing Large Objects".
//
// Usage:
//
//	lobbench -exp list                 # show available experiments
//	lobbench -exp fig5                 # one experiment at paper scale
//	lobbench -exp fig7,fig9,fig11      # several (mix runs are shared)
//	lobbench -exp all -quick -v        # everything, ~10x smaller, verbose
//	lobbench -exp table3 -csv out/     # also write CSV files
//	lobbench -exp all -parallel 1      # force the fully sequential path
//	lobbench -exp all -benchjson b.json -cpuprofile cpu.pprof
//	lobbench -exp fig7 -timeseries ts.json     # per-cell latency trajectories
//	lobbench -volbenchjson BENCH_volume.json   # backend micro-benchmarks only
//
// Experiments decompose into independent simulation cells that run on a
// worker pool (-parallel, default GOMAXPROCS); tables are assembled
// sequentially from the cached cells, so stdout and CSV output are
// byte-identical for every -parallel value.
//
// Results are aligned text tables on stdout; each carries the paper
// reference values in its note.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"lobstore"
	"lobstore/internal/harness"
	"lobstore/internal/sim"
)

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiment names, 'all', or 'list'")
		quick    = flag.Bool("quick", false, "run ~10x smaller (1 MB object, 1000 ops)")
		verbose  = flag.Bool("v", false, "print per-run progress to stderr")
		object   = flag.String("object", "", "object size override, e.g. 10M or 512K")
		ops      = flag.Int("ops", 0, "random-mix length override")
		seed     = flag.Int64("seed", 0, "workload seed override")
		csvDir   = flag.String("csv", "", "directory to also write one CSV per table")
		sample   = flag.Int("sample", 0, "figure mark spacing override")
		trace    = flag.String("trace", "", "write a JSONL event trace of every run to this file")
		metrics  = flag.Bool("metrics", false, "print an aggregated metrics report to stderr at the end")
		parallel = flag.Int("parallel", 0, "simulation cell workers; 0 = GOMAXPROCS, 1 = fully sequential")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
		benchOut = flag.String("benchjson", "", "write per-experiment wall/alloc/simulated-time measurements to this JSON file")
		conc     = flag.Bool("concurrent", false, "open each database through the concurrency engine (adds lock/epoch overhead: paper tables need it off)")
		volOut   = flag.String("volbenchjson", "", "run the volume backend micro-benchmarks, write them to this JSON file, and exit")
		tsOut    = flag.String("timeseries", "", "write per-cell flight-recorder windows (counters + latency percentiles over simulated time) to this JSON file")
		tsWindow = flag.Duration("tswindow", 10*time.Second, "flight-recorder window width in simulated time (with -timeseries)")
	)
	flag.Parse()

	if *expFlag == "list" {
		for _, e := range harness.Experiments {
			fmt.Printf("%-22s %s\n", e.Name, e.Desc)
		}
		return
	}

	if *volOut != "" {
		rep, err := volumeBenchmarks(sim.DefaultModel().PageSize)
		if err != nil {
			fatalf("volume benchmarks: %v", err)
		}
		if err := writeVolBenchJSON(*volOut, rep); err != nil {
			fatalf("writing volbenchjson: %v", err)
		}
		return
	}

	cfg := harness.DefaultConfig()
	if *quick {
		cfg = harness.QuickConfig()
	}
	if *object != "" {
		n, err := parseSize(*object)
		if err != nil {
			fatalf("bad -object: %v", err)
		}
		cfg.ObjectBytes = n
	}
	if *ops > 0 {
		cfg.MixOps = *ops
	}
	if *sample > 0 {
		cfg.SampleEvery = *sample
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.DB.Concurrent = *conc

	var names []string
	if *expFlag == "all" {
		names = harness.Names()
	} else {
		for _, name := range strings.Split(*expFlag, ",") {
			names = append(names, strings.TrimSpace(name))
		}
	}
	for _, name := range names {
		if _, ok := harness.Lookup(name); !ok {
			fatalf("unknown experiment %q (try -exp list)", name)
		}
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	r := harness.NewRunner(cfg)
	if *verbose {
		r.Log = os.Stderr
	}
	// Per-cell telemetry feeds the benchjson percentile columns and the
	// timeseries artifact. It observes simulated time without advancing it,
	// so the tables stay byte-identical (pinned by a harness test).
	var tel *harness.Telemetry
	if *benchOut != "" || *tsOut != "" {
		tel = r.EnableTelemetry()
		if *tsOut != "" {
			tel.RecordTimeSeries(sim.Duration(tsWindow.Microseconds()), 512)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatalf("creating %s: %v", *csvDir, err)
		}
	}

	// Observability: every database the runner opens shares one trace
	// stream and one metrics registry, so the output covers the whole
	// invocation.
	var (
		traceFile   *os.File
		traceWriter *lobstore.TraceWriter
		agg         *lobstore.Metrics
	)
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fatalf("creating trace: %v", err)
		}
		traceFile = f
		traceWriter = lobstore.NewTraceWriter(f)
	}
	if *metrics {
		agg = lobstore.NewMetrics()
	}
	var tracker *benchTracker
	if *benchOut != "" {
		tracker = &benchTracker{}
	}
	if traceWriter != nil || agg != nil || tracker != nil {
		// The hook runs on worker goroutines under a parallel schedule; the
		// trace writer, metrics registry and tracker are all goroutine-safe.
		r.Observe = func(db *lobstore.DB) {
			if traceWriter != nil {
				db.AttachTrace(traceWriter)
			}
			if agg != nil {
				db.EnableMetrics(agg)
			}
			if tracker != nil {
				tracker.track(db)
			}
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatalf("creating cpu profile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("starting cpu profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatalf("closing cpu profile: %v", err)
			}
		}()
	}

	var report *benchReport
	if tracker != nil {
		report = &benchReport{Config: benchConfigInfo{
			Quick:       *quick,
			ObjectBytes: cfg.ObjectBytes,
			MixOps:      cfg.MixOps,
			Seed:        cfg.Seed,
			Workers:     workers,
		}}
	}

	// Phase 1: execute the simulation cells behind all requested experiments
	// on the worker pool. Phase 2 assembles tables sequentially from the
	// cached results, so the output is byte-identical for every -parallel
	// value (with -parallel 1 the prepass is skipped and each cell is
	// computed on demand during assembly, the fully sequential path).
	precompute := func() error { return r.Precompute(names, workers) }
	if tracker != nil && workers > 1 {
		phase, err := tracker.measurePhase("prepass", precompute)
		if err != nil {
			fatalf("%v", err)
		}
		report.Prepass = &phase
	} else if err := precompute(); err != nil {
		fatalf("%v", err)
	}

	emit := func(name string) error {
		e, _ := harness.Lookup(name)
		tables, err := e.Run(r)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, t := range tables {
			if err := t.WriteText(os.Stdout); err != nil {
				return fmt.Errorf("writing %s: %w", t.ID, err)
			}
			if *csvDir != "" {
				f, err := os.Create(filepath.Join(*csvDir, t.ID+".csv"))
				if err != nil {
					return fmt.Errorf("creating csv: %w", err)
				}
				if err := t.WriteCSV(f); err != nil {
					return fmt.Errorf("writing csv: %w", err)
				}
				if err := f.Close(); err != nil {
					return fmt.Errorf("closing csv: %w", err)
				}
			}
		}
		return nil
	}
	for _, name := range names {
		if tracker == nil {
			if err := emit(name); err != nil {
				fatalf("%v", err)
			}
			continue
		}
		phase, err := tracker.measurePhase(name, func() error { return emit(name) })
		if err != nil {
			fatalf("%v", err)
		}
		report.Experiments = append(report.Experiments, phase)
	}

	if report != nil && tel != nil {
		for i := range report.Experiments {
			h, err := tel.ExperimentWall(report.Experiments[i].Name)
			if err != nil || h.N() == 0 {
				continue
			}
			p := &report.Experiments[i]
			p.OpCount = h.N()
			p.OpWallP50Us = h.Quantile(0.50)
			p.OpWallP95Us = h.Quantile(0.95)
			p.OpWallP99Us = h.Quantile(0.99)
		}
		for _, ct := range tel.Cells() {
			bc := benchCell{Key: ct.Key, WallMs: float64(ct.WallUs()) / 1000}
			if mw := ct.MergedWall(); mw.N() > 0 {
				bc.OpCount = mw.N()
				bc.OpWallP50Us = mw.Quantile(0.50)
				bc.OpWallP95Us = mw.Quantile(0.95)
				bc.OpWallP99Us = mw.Quantile(0.99)
			}
			report.Cells = append(report.Cells, bc)
		}
	}
	if *tsOut != "" {
		if err := writeTimeSeriesJSON(*tsOut, tel); err != nil {
			fatalf("writing timeseries: %v", err)
		}
	}

	if report != nil {
		report.Micro = microBenchmarks()
		report.TotalSimMs = tracker.simSince(0)
		if report.Prepass != nil {
			report.TotalWallMs += report.Prepass.WallMs
		}
		for _, p := range report.Experiments {
			report.TotalWallMs += p.WallMs
		}
		if err := writeBenchJSON(*benchOut, report); err != nil {
			fatalf("writing benchjson: %v", err)
		}
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatalf("creating mem profile: %v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("writing mem profile: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("closing mem profile: %v", err)
		}
	}

	if traceWriter != nil {
		if err := traceWriter.Flush(); err != nil {
			fatalf("flushing trace: %v", err)
		}
		if err := traceFile.Close(); err != nil {
			fatalf("closing trace: %v", err)
		}
	}
	if agg != nil {
		if err := agg.WriteText(os.Stderr); err != nil {
			fatalf("writing metrics: %v", err)
		}
	}
}

// parseSize accepts raw bytes or K/M/G suffixes.
func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("size must be positive")
	}
	return n * mult, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lobbench: "+format+"\n", args...)
	os.Exit(1)
}
