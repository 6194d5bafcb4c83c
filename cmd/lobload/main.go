// Command lobload drives a running lobserve with an open- or closed-loop
// synthetic workload and reports wall-clock latency percentiles, following
// the discipline distinction of Schroeder et al. (Open Versus Closed): in
// closed loop each of -clients keeps exactly one request in flight, so
// latency is service time; with -rate R the generator switches to open
// loop, issuing requests on a fixed schedule and measuring latency from
// each request's *scheduled* start, which corrects for coordinated
// omission.
//
//	$ lobload -addr 127.0.0.1:7431 -clients 16 -duration 5s -slo 2ms
//	$ lobload -addr 127.0.0.1:7431 -rate 5000 -duration 10s
//
// The working set is -objects large objects preloaded to -object-bytes
// each; the op mix is set by integer weights (-read/-append/-insert/
// -delete/-stat) and key choice is uniform, Zipf-skewed (-zipf) or
// hotspot (-hot-frac/-hot-set).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"lobstore/internal/loadgen"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7431", "lobserve TCP address")
		objects    = flag.Int("objects", 16, "working-set size in objects")
		objBytes   = flag.String("object-bytes", "256K", "preloaded size of each object (K/M suffixes)")
		engine     = flag.String("engine", "eos", "engine for created objects: esm, starburst or eos")
		param      = flag.Int("param", 0, "engine parameter (0 = ESM leaf 4 / EOS threshold 16 / Starburst allocator max)")
		readBytes  = flag.String("read-bytes", "4096", "read request size (K/M suffixes)")
		writeBytes = flag.String("write-bytes", "4096", "append/insert payload size (K/M suffixes)")
		mixRead    = flag.Int("read", 80, "read weight in the op mix")
		mixAppend  = flag.Int("append", 20, "append weight in the op mix")
		mixInsert  = flag.Int("insert", 0, "insert weight in the op mix")
		mixDelete  = flag.Int("delete", 0, "delete weight in the op mix")
		mixStat    = flag.Int("stat", 0, "stat weight in the op mix")
		zipf       = flag.Float64("zipf", 0, "Zipf key skew exponent (>1 enables; 0 = uniform)")
		hotFrac    = flag.Float64("hot-frac", 0, "fraction of requests sent to the hot set (0 = uniform)")
		hotSet     = flag.Int("hot-set", 1, "number of objects in the hot set")
		seed       = flag.Int64("seed", 1, "RNG seed for reproducible key/op sequences")
		clients    = flag.Int("clients", 1, "closed-loop multiprogramming level (worker count in open loop)")
		rate       = flag.Float64("rate", 0, "open-loop target request rate per second (0 = closed loop)")
		duration   = flag.Duration("duration", time.Second, "measured interval, after preload")
		slo        = flag.Duration("slo", 0, "latency objective for goodput (0 = disabled)")
	)
	flag.Parse()

	ob, err := parseSize(*objBytes)
	if err != nil {
		fatalf("-object-bytes: %v", err)
	}
	rb, err := parseSize(*readBytes)
	if err != nil {
		fatalf("-read-bytes: %v", err)
	}
	wb, err := parseSize(*writeBytes)
	if err != nil {
		fatalf("-write-bytes: %v", err)
	}
	code, err := loadgen.EngineCode(*engine)
	if err != nil {
		fatalf("%v", err)
	}

	spec := loadgen.Spec{
		Addr:        *addr,
		Objects:     *objects,
		ObjectBytes: ob,
		Engine:      code,
		Param:       uint32(*param),
		ReadBytes:   int(rb),
		WriteBytes:  int(wb),
		Mix: loadgen.Mix{
			Read: *mixRead, Append: *mixAppend, Insert: *mixInsert,
			Delete: *mixDelete, Stat: *mixStat,
		},
		Zipf:       *zipf,
		HotFrac:    *hotFrac,
		HotSet:     *hotSet,
		Seed:       *seed,
		Clients:    *clients,
		TargetRate: *rate,
		Duration:   *duration,
		SLOMicros:  slo.Microseconds(),
	}
	res, err := loadgen.Run(spec)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("%s loop, %d clients", res.Mode, res.Clients)
	if res.TargetRate > 0 {
		fmt.Printf(", target %.0f req/s", res.TargetRate)
	}
	fmt.Printf(": %d ops in %.0fms = %.0f ops/s (%d errors)\n",
		res.Ops, res.ElapsedMs, res.OpsPerSec, res.Errors)
	fmt.Printf("latency µs: mean %.1f  p50 %d  p95 %d  p99 %d  max %d\n",
		res.MeanUs, res.P50Us, res.P95Us, res.P99Us, res.MaxUs)
	if res.SLOUs > 0 {
		fmt.Printf("goodput at %dµs SLO: %.0f ops/s\n", res.SLOUs, res.GoodputOpsPerSec)
	}
}

// parseSize parses a byte count with optional K/M suffix (powers of two).
func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lobload: "+format+"\n", args...)
	os.Exit(1)
}
