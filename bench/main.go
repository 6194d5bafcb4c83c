// Command lobmark is the repository's benchmark: it hosts the real serving
// stack in-process (file-backed store, TCP server on a loopback listener),
// drives it with two verifying client connections, and prints the metrics
// declared in BENCHMARK.json. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is what -out keeps of one run of one workload.
type record struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Error     string             `json:"error,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Spread    map[string]float64 `json:"spread,omitempty"`
	Detail    map[string]float64 `json:"detail"`
}

// outFile is the -out document.
type outFile struct {
	Env     map[string]string `json:"env"`
	Seed    int64             `json:"seed"`
	Seconds float64           `json:"seconds"`
	Warmup  float64           `json:"warmup"`
	Runs    []record          `json:"runs"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lobmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		p       params
		name    = fs.String("workload", "all", "workload name, or all")
		trace   = fs.String("trace", "0", "0: end-to-end metrics, tracing off; 1: the per-layer run; both: one after the other")
		out     = fs.String("out", "", "also write the results, with detail and environment, to this JSON file")
		compare = fs.Bool("compare", false, "compare two -out files given as arguments against the bounds, instead of running")
	)
	fs.Int64Var(&p.seed, "seed", 1, "workload seed; the stack only ever sees the generated requests")
	fs.Float64Var(&p.seconds, "seconds", 25, "measured seconds per run")
	fs.Float64Var(&p.warmup, "warmup", 2, "warm-up seconds before the measured window")
	fs.StringVar(&p.outdir, "outdir", "bench/out", "directory for store files and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "lobmark: -compare takes two -out files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(stderr, "lobmark: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	todo := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "lobmark:", err)
			return 2
		}
		todo = []workload{w}
	}
	if p.seconds <= 0 || p.warmup < 0 {
		fmt.Fprintln(stderr, "lobmark: -seconds must be positive and -warmup not negative")
		return 2
	}
	if err := os.MkdirAll(p.outdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "lobmark:", err)
		return 1
	}

	doc := outFile{Env: environment(p.outdir), Seed: p.seed, Seconds: p.seconds, Warmup: p.warmup}
	final := report{Correct: true, Metrics: map[string]value{}}
	for _, w := range todo {
		for _, traceOn := range modes {
			rec := runOne(w, p, traceOn, stderr)
			doc.Runs = append(doc.Runs, rec)
			final.Correct = final.Correct && rec.Correct
			final.Attempted += rec.Attempted
			final.Failed += rec.Failed
			defs := endToEndDefs
			if traceOn {
				defs = perLayerDefs
			}
			for _, d := range defs {
				key := d.Name
				if len(todo) > 1 {
					key = w.name + "/" + key
				}
				// A metric that is not a number is absent from rec.Metrics and
				// has already made the run incorrect.
				if v, ok := rec.Metrics[d.Name]; ok {
					final.Metrics[key] = value{v, d.Unit}
				}
			}
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "lobmark:", err)
			return 1
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "lobmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !final.Correct {
		return 1
	}
	return 0
}

// runOne runs one workload in one mode, prints every figure by name with its
// unit, and returns the record. A run is correct when nothing failed, every
// check passed and every declared metric came out as a number.
func runOne(w workload, p params, traceOn bool, stderr io.Writer) record {
	run, defs, mode := endToEnd, endToEndDefs, "end to end"
	if traceOn {
		run, defs, mode = traced, perLayerDefs, "per layer"
	}
	fmt.Fprintf(stderr, "== %s, %s, seed %d, %gs\n", w.name, mode, p.seed, p.seconds)
	res, err := run(w, p)
	rec := record{Workload: w.name, Trace: traceOn}
	if res != nil {
		rec.Attempted, rec.Failed = res.attempted, res.failed
		rec.Metrics, rec.Spread, rec.Detail = res.metrics, res.spread, finite(res.detail)
		for _, d := range defs {
			v, ok := res.metrics[d.Name]
			if err == nil && (!ok || math.IsNaN(v) || math.IsInf(v, 0)) {
				err = fmt.Errorf("metric %s is not a number", d.Name)
			}
			fmt.Fprintf(stderr, "%-40s %16.4f %s\n", d.Name, v, d.Unit)
		}
		names := make([]string, 0, len(rec.Detail))
		for k := range rec.Detail {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(stderr, "  %-38s %16.4f %s\n", k, rec.Detail[k], unitOf(k))
		}
		fmt.Fprintf(stderr, "attempted %d, failed %d\n", rec.Attempted, rec.Failed)
		rec.Metrics = finite(rec.Metrics)
	}
	if err == nil && rec.Failed > 0 {
		err = fmt.Errorf("%d of %d requests failed", rec.Failed, rec.Attempted)
	}
	if err != nil {
		rec.Error = err.Error()
		fmt.Fprintf(stderr, "lobmark: %s: %v\n", w.name, err)
	}
	rec.Correct = err == nil
	return rec
}

// finite drops values JSON cannot carry.
func finite(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[k] = v
		}
	}
	return out
}

// unitOf reads a detail figure's unit off its name's suffix.
func unitOf(name string) string {
	for _, u := range [][2]string{{"_us", "us"}, {"_ns", "ns"}, {"_ms", "ms"}, {"_pct", "%"}, {"_frac", "fraction"}, {"_amp", "ratio"}} {
		if strings.HasSuffix(name, u[0]) {
			return u[1]
		}
	}
	return "count"
}

// environment records what the numbers depend on besides the code.
func environment(outdir string) map[string]string {
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(outdir, &st); err == nil {
		names := map[int64]string{0xef53: "ext2/3/4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683e: "btrfs"}
		env["outdir_fs"] = fmt.Sprintf("%#x %s", st.Type, names[int64(st.Type)])
	}
	return env
}
