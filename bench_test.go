package lobstore_test

// One benchmark per table and figure of the paper's evaluation (§4). Each
// runs the corresponding harness experiment end to end and logs the
// regenerated table; the "sim-ms" metric is the simulated disk time the
// experiment accounted for, which is the quantity the paper reports.
//
// Benchmarks default to the quick scale (1 MB object) so `go test -bench=.`
// stays tractable; the full paper scale is one flag away:
//
//	go test -bench=Fig5 -benchtime=1x -paperscale
//	go run ./cmd/lobbench -exp all          # equivalent, nicer output
import (
	"flag"
	"strings"
	"testing"

	"lobstore"
	"lobstore/internal/harness"
	"lobstore/internal/workload"
)

var paperScale = flag.Bool("paperscale", false, "run benchmarks at the paper's 10 MB scale")

func benchConfig() harness.Config {
	if *paperScale {
		return harness.DefaultConfig()
	}
	return harness.QuickConfig()
}

// benchExperiment runs one named harness experiment per iteration. The
// runner is created once, outside the loop: the experiments share their
// simulation cells through the runner's cache by design, and a fresh
// runner per iteration would re-simulate every cell b.N times. The first
// (untimed) run fills the cache; timed iterations measure table assembly
// over cached cells. The simulated cost of the cells themselves is what
// lobbench's -benchjson records.
func benchExperiment(b *testing.B, name string) {
	e, ok := harness.Lookup(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	r := harness.NewRunner(benchConfig())
	tables, err := e.Run(r)
	if err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	for _, t := range tables {
		if err := t.WriteText(&sb); err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + sb.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Parameters(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkFig5BuildTime(b *testing.B)         { benchExperiment(b, "fig5") }
func BenchmarkFig6SeqScan(b *testing.B)           { benchExperiment(b, "fig6") }
func BenchmarkFig7ESMUtil(b *testing.B)           { benchExperiment(b, "fig7") }
func BenchmarkFig8EOSUtil(b *testing.B)           { benchExperiment(b, "fig8") }
func BenchmarkTable2StarburstRead(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkFig9ESMRead(b *testing.B)           { benchExperiment(b, "fig9") }
func BenchmarkFig10EOSRead(b *testing.B)          { benchExperiment(b, "fig10") }
func BenchmarkTable3StarburstUpdate(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig11ESMInsert(b *testing.B)        { benchExperiment(b, "fig11") }
func BenchmarkFig12EOSInsert(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkDeleteCost(b *testing.B)            { benchExperiment(b, "deletes") }
func BenchmarkScaling(b *testing.B)               { benchExperiment(b, "scaling") }
func BenchmarkSummary(b *testing.B)               { benchExperiment(b, "summary") }

func BenchmarkAblationWholeLeafIO(b *testing.B) { benchExperiment(b, "ablation-wholeleaf") }
func BenchmarkAblationNoShadow(b *testing.B)    { benchExperiment(b, "ablation-noshadow") }
func BenchmarkAblationNoPoolRuns(b *testing.B)  { benchExperiment(b, "ablation-poolrun") }
func BenchmarkAblationBasicInsert(b *testing.B) { benchExperiment(b, "ablation-basicinsert") }

// --- implementation micro-benchmarks ---------------------------------------
// These measure the Go implementation itself (wall-clock ns/op), not the
// simulated disk: useful for keeping the simulator fast enough to run the
// paper-scale experiments.

func benchObject(b *testing.B, open func(db *lobstore.DB) (lobstore.Object, error), size int64) (*lobstore.DB, lobstore.Object) {
	b.Helper()
	cfg := lobstore.DefaultConfig()
	db, err := lobstore.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	obj, err := open(db)
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.Build(obj, size, 256<<10); err != nil {
		b.Fatal(err)
	}
	return db, obj
}

func reportSim(b *testing.B, db *lobstore.DB) {
	b.ReportMetric(float64(db.Now().Milliseconds())/float64(b.N), "sim-ms/op")
}

func BenchmarkMicroESMRead10K(b *testing.B) {
	db, obj := benchObject(b, func(db *lobstore.DB) (lobstore.Object, error) { return db.NewESM(4) }, 4<<20)
	buf := make([]byte, 10<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i*9973) % (obj.Size() - int64(len(buf)))
		if err := obj.Read(off, buf); err != nil {
			b.Fatal(err)
		}
	}
	reportSim(b, db)
}

func BenchmarkMicroEOSInsertDelete(b *testing.B) {
	db, obj := benchObject(b, func(db *lobstore.DB) (lobstore.Object, error) { return db.NewEOS(4) }, 4<<20)
	data := make([]byte, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i*7919) % obj.Size()
		if err := obj.Insert(off, data); err != nil {
			b.Fatal(err)
		}
		if err := obj.Delete(off, int64(len(data))); err != nil {
			b.Fatal(err)
		}
	}
	reportSim(b, db)
}

func BenchmarkMicroStarburstAppend(b *testing.B) {
	cfg := lobstore.DefaultConfig()
	cfg.LeafAreaPages = 1 << 20 // plenty of space for b.N appends
	db, err := lobstore.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	obj, err := db.NewStarburst(0)
	if err != nil {
		b.Fatal(err)
	}
	chunk := make([]byte, 32<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obj.Append(chunk); err != nil {
			b.Fatal(err)
		}
	}
	reportSim(b, db)
}

// BenchmarkMicroSequentialReadObsOff pins the observability layer's
// zero-overhead-when-disabled contract: the aligned large-segment read path
// must stay allocation-free with no sink attached (allocs/op must be 0).
func BenchmarkMicroSequentialReadObsOff(b *testing.B) {
	benchSequentialRead(b, false)
}

// BenchmarkMicroSequentialReadObsOn is the same read with a metrics sink
// attached, for before/after comparison of the tracing cost.
func BenchmarkMicroSequentialReadObsOn(b *testing.B) {
	benchSequentialRead(b, true)
}

func benchSequentialRead(b *testing.B, observe bool) {
	db, err := lobstore.Open(lobstore.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	ps := db.PageSize()
	obj, err := db.NewStarburstKnownSize(0, int64(512*ps))
	if err != nil {
		b.Fatal(err)
	}
	if err := obj.Append(make([]byte, 512*ps)); err != nil {
		b.Fatal(err)
	}
	if observe {
		db.EnableMetrics(nil)
	}
	buf := make([]byte, 8*ps)
	steps := obj.Size() / int64(len(buf))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (int64(i) % steps) * int64(len(buf))
		if err := obj.Read(off, buf); err != nil {
			b.Fatal(err)
		}
	}
	reportSim(b, db)
}
