package server

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"lobstore"
	"lobstore/internal/wire"
)

// RunServe is the serve command-line entry point, shared by cmd/lobserve
// and the `lobctl serve` subcommand. prog names the invocation in usage
// text; args are the flags after the program/subcommand name. It returns
// a process exit code.
//
// The server runs until SIGINT or SIGTERM, then shuts down cleanly:
// listener closed, live connections torn down, database closed (flushing
// the file backend), and a service-time summary printed to stderr.
func RunServe(prog string, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:7431", "TCP listen address")
		backend  = fs.String("backend", "mem", "byte-storage backend: mem or file")
		dir      = fs.String("dir", "", "directory of the file-backed database (backend file)")
		sync     = fs.String("sync", "commit", "file-backend fsync policy: always, commit or never")
		groupMax = fs.Int("group-commit", 16, "file-backend group commit: max barriers per device flush (<= 1 = groups of one)")
		bufPages = fs.Int("buffer-pages", 256, "buffer pool size in pages (0 = concurrent minimum)")
		workers  = fs.Int("workers", 0, "request-executing goroutines per connection (0 = default)")
		chunk    = fs.Int("chunk", 0, "streaming-read frame payload bytes (0 = default 64KiB)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := lobstore.DefaultConfig()
	cfg.Backend, cfg.Dir, cfg.SyncPolicy = *backend, *dir, *sync
	cfg.GroupCommit = lobstore.GroupCommit{MaxBatch: *groupMax}
	// The server requires the concurrency engine; the pool floor is the
	// engine's documented minimum unless the user asks for more.
	cfg.Concurrent = true
	if *bufPages > 0 {
		cfg.BufferPages = *bufPages
	} else {
		cfg.BufferPages = lobstore.MinConcurrentBufferPages
	}

	db, err := lobstore.Open(cfg)
	if err != nil {
		if errors.Is(err, lobstore.ErrConfig) {
			fmt.Fprintf(stderr, "%s: configuration: %v\n", prog, err)
		} else {
			fmt.Fprintf(stderr, "%s: open: %v\n", prog, err)
		}
		return 1
	}

	srv, err := New(db, Options{Workers: *workers, ChunkBytes: *chunk})
	if err != nil {
		db.Close() //lobvet:ignore errdiscard — exiting on the primary error
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		return 1
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		db.Close() //lobvet:ignore errdiscard — exiting on the primary error
		fmt.Fprintf(stderr, "%s: listen: %v\n", prog, err)
		return 1
	}
	// The smoke harness (and scripts generally) wait for this line before
	// sending traffic; the resolved address matters with ":0".
	fmt.Fprintf(stderr, "%s: listening on %s\n", prog, ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	// Allocation pressure is read only here and at shutdown, never on the
	// request path.
	var memStart, memEnd runtime.MemStats
	runtime.ReadMemStats(&memStart)
	go func() { done <- srv.Serve(ln) }()

	code := 0
	select {
	case sig := <-sigc:
		fmt.Fprintf(stderr, "%s: %v: shutting down\n", prog, sig)
		srv.Close(ln) //lobvet:ignore errdiscard — shutdown path; listener close errors have no recovery
		// Give in-flight connections a moment to drain before the DB goes
		// away beneath them; Serve returns once they are gone.
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			fmt.Fprintf(stderr, "%s: drain timed out\n", prog)
		}
	case err := <-done:
		if err != nil && !errors.Is(err, ErrServerClosed) {
			fmt.Fprintf(stderr, "%s: serve: %v\n", prog, err)
			code = 1
		}
	}
	runtime.ReadMemStats(&memEnd)
	// Trim growth-pattern slack before the DB closes, so the saved image
	// is exact and an offline fsck of the directory comes back clean.
	if err := srv.CloseHandles(); err != nil {
		fmt.Fprintf(stderr, "%s: close handles: %v\n", prog, err)
		code = 1
	}
	hits, misses := db.PoolHitRate()
	steps, fallbacks := db.PoolVictimStats()
	if err := db.Close(); err != nil {
		fmt.Fprintf(stderr, "%s: close: %v\n", prog, err)
		code = 1
	}
	printSummary(stderr, prog, srv, &memStart, &memEnd)
	fmt.Fprintf(stderr, "%s: buffer pool %d hits %d misses; victim search visited %d frames, %d full scans\n",
		prog, hits, misses, steps, fallbacks)
	return code
}

// printSummary reports served-request counts, wall-clock service-time
// percentiles and the allocation pressure between two MemStats reads (GC
// cycles, total GC pause, heap bytes allocated per served request) on
// shutdown.
func printSummary(w io.Writer, prog string, srv *Server, start, end *runtime.MemStats) {
	total := int64(0)
	for op := byte(0); op < 8; op++ {
		total += srv.OpCount(op)
	}
	s := srv.LatencySummary()
	fmt.Fprintf(w, "%s: served %d requests (%d reads, %d appends, %d inserts, %d deletes, %d server errors)\n",
		prog, total,
		srv.OpCount(wire.OpRead), srv.OpCount(wire.OpAppend),
		srv.OpCount(wire.OpInsert), srv.OpCount(wire.OpDelete),
		srv.ServerErrs())
	if s.N > 0 {
		fmt.Fprintf(w, "%s: service time p50 %dµs p95 %dµs p99 %dµs max %dµs\n",
			prog, s.P50Us, s.P95Us, s.P99Us, s.MaxUs)
	}
	fmt.Fprintf(w, "%s: GC %d cycles, %v total pause, %d heap bytes allocated per request\n",
		prog, end.NumGC-start.NumGC, time.Duration(end.PauseTotalNs-start.PauseTotalNs),
		(end.TotalAlloc-start.TotalAlloc)/uint64(max(total, 1)))
}
