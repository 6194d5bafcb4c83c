// Command lobctl drives a large object interactively through the public
// API, printing the simulated I/O cost of every operation. It reads one
// command per line from stdin (or from -c), making it easy to explore how
// the three storage structures respond to the same operation sequence:
//
//	$ lobctl -engine esm -leaf 4 <<'EOF'
//	append 1M
//	insert 5000 64K
//	read 0 10K
//	stat
//	EOF
//
// Commands:
//
//	append N          append N fresh bytes
//	insert OFF N      insert N bytes before offset OFF
//	delete OFF N      delete N bytes at OFF
//	replace OFF N     overwrite N bytes at OFF
//	read OFF N        read N bytes at OFF
//	scan CHUNK        sequential scan in CHUNK-byte pieces
//	stat              object and database statistics
//	close             finalize (trim) the object
//	destroy           free all object space
//	help              this list
//
// Sizes accept K/M suffixes.
//
// By default the object lives in a fresh in-memory simulated database and
// vanishes on exit. With -backend file -dir PATH the database is durable:
// the object (named "lobctl") is created on first use and reopened — after
// crash-consistent recovery — on later runs. -sync selects the fsync
// policy (always, commit, never).
//
// The read-only subcommand
//
//	lobctl fsck [-v] DIR
//
// cross-checks a durable database's on-disk allocation directories against
// the set of pages reachable from its catalog, reporting leaked
// (allocated-but-unowned) and doubly-owned pages; it exits 1 on an
// unclean store. With -v it first lists what is inside the database: the
// catalog, each object's size, segment count, utilization and per-segment
// layout, and the space totals. On a running server's directory the
// listing still names the objects, but the totals are those of the last
// flushed directories.
//
// The subcommand
//
//	lobctl serve [flags]
//
// serves a database over TCP, speaking the internal/wire protocol. It
// opens the store through the concurrency engine (Config.Concurrent), so
// many connections share one database with per-object FIFO ordering and
// snapshot reads, and commits from independent connections share the file
// backend's group-commit batches. It logs "listening on ADDR" to stderr
// once ready (use -addr with port 0 to pick a free port), and shuts down
// cleanly on SIGINT or SIGTERM, printing request counts and service-time
// percentiles. Flags:
//
//	-addr          TCP listen address (default 127.0.0.1:7431)
//	-backend       mem or file (default mem)
//	-dir           file-backend directory
//	-sync          file-backend fsync policy: always, commit, never
//	-group-commit  max barriers per device flush (default 16)
//	-buffer-pages  buffer pool size in pages (default 256; 0 = concurrent minimum)
//	-workers       executor goroutines per connection (0 = default 4)
//	-chunk         streaming-read frame payload bytes (0 = 64KiB)
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"lobstore"
	"lobstore/internal/server"
	"lobstore/internal/workload"
)

func main() {
	// Subcommands come first on the command line, before any flags.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(server.RunServe("lobctl serve", os.Args[2:], os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "fsck" {
		fs := flag.NewFlagSet("fsck", flag.ExitOnError)
		verbose := fs.Bool("v", false, "first list the catalog, each object's layout and the space totals")
		if err := fs.Parse(os.Args[2:]); err != nil {
			fatalf("fsck: %v", err)
		}
		if fs.NArg() != 1 {
			fatalf("usage: lobctl fsck [-v] DIR")
		}
		clean, err := fsck(fs.Arg(0), *verbose, os.Stdout)
		if err != nil {
			fatalf("fsck: %v", err)
		}
		if !clean {
			os.Exit(1)
		}
		return
	}
	var (
		engine    = flag.String("engine", "eos", "storage structure: esm, starburst or eos")
		leaf      = flag.Int("leaf", 4, "ESM leaf size in pages")
		threshold = flag.Int("threshold", 16, "EOS segment size threshold in pages")
		maxSeg    = flag.Int("maxseg", 0, "Starburst max segment pages (0 = allocator max)")
		script    = flag.String("c", "", "semicolon-separated commands instead of stdin")
		trace     = flag.String("trace", "", "write a JSONL event trace to this file")
		metrics   = flag.Bool("metrics", false, "print a metrics report to stderr on exit")
		backend   = flag.String("backend", "mem", "byte-storage backend: mem or file")
		dir       = flag.String("dir", "", "directory of the file-backed database (backend file)")
		sync      = flag.String("sync", "commit", "file-backend fsync policy: always, commit or never")
		groupMax  = flag.Int("group-commit", 0, "file-backend group commit: max barriers per device flush (<= 1 = groups of one)")
		conc      = flag.Bool("concurrent", false, "open the database through the concurrency engine (thread-safe handles, snapshot reads)")
		bufPages  = flag.Int("buffer-pages", 0, "buffer pool size in pages (0 = paper default; -concurrent needs a larger pool and picks one)")
	)
	flag.Parse()

	cfg := lobstore.DefaultConfig()
	cfg.Backend, cfg.Dir, cfg.SyncPolicy = *backend, *dir, *sync
	cfg.GroupCommit = lobstore.GroupCommit{MaxBatch: *groupMax}
	cfg.Concurrent = *conc
	switch {
	case *bufPages > 0:
		// An explicit pool size is the user's to get wrong: a
		// starvation-prone choice under -concurrent is rejected by Open
		// below with a configuration error, not silently padded.
		cfg.BufferPages = *bufPages
	case *conc:
		cfg.BufferPages = lobstore.MinConcurrentBufferPages
	}
	db, err := lobstore.Open(cfg)
	if err != nil {
		if errors.Is(err, lobstore.ErrConfig) {
			fatalf("configuration: %v", err)
		}
		fatalf("open: %v", err)
	}
	var traceFile *os.File
	if *trace != "" {
		traceFile, err = os.Create(*trace)
		if err != nil {
			fatalf("creating trace: %v", err)
		}
		db.EnableTrace(traceFile)
	}
	if *metrics {
		db.EnableMetrics(nil)
	}
	var obj lobstore.Object
	if *backend == "file" {
		// Durable databases keep the object across runs: reattach when a
		// previous session already created it.
		obj, err = openOrCreate(db, *engine, *leaf, *threshold, *maxSeg)
	} else {
		switch *engine {
		case "esm":
			obj, err = db.NewESM(*leaf)
		case "starburst":
			obj, err = db.NewStarburst(*maxSeg)
		case "eos":
			obj, err = db.NewEOS(*threshold)
		default:
			fatalf("unknown engine %q (esm, starburst, eos)", *engine)
		}
	}
	if err != nil {
		fatalf("create object: %v", err)
	}

	var in io.Reader = os.Stdin
	if *script != "" {
		in = strings.NewReader(strings.ReplaceAll(*script, ";", "\n"))
	}
	if err := run(db, obj, in, os.Stdout); err != nil {
		fatalf("%v", err)
	}
	if traceFile != nil {
		if err := db.FlushTrace(); err != nil {
			fatalf("flushing trace: %v", err)
		}
		if err := traceFile.Close(); err != nil {
			fatalf("closing trace: %v", err)
		}
	}
	if m := db.Metrics(); m != nil {
		if err := m.WriteText(os.Stderr); err != nil {
			fatalf("writing metrics: %v", err)
		}
	}
	if *backend == "file" {
		// Trim growth-pattern slack (Starburst, EOS) so the saved image is
		// exact and an offline fsck comes back clean without a reopen. A
		// destroyed object has nothing left to trim; don't fail the exit.
		if err := obj.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "lobctl: close object: %v\n", err)
		}
		if err := db.Close(); err != nil {
			fatalf("close: %v", err)
		}
	}
}

// objectName is the fixed catalog name of lobctl's object in a durable
// database.
const objectName = "lobctl"

// openOrCreate reattaches to the named object of a durable database, or
// creates it on first use with the engine flags.
func openOrCreate(db *lobstore.DB, engine string, leaf, threshold, maxSeg int) (lobstore.Object, error) {
	if obj, err := db.OpenObject(objectName); err == nil {
		return obj, nil
	}
	return db.Create(objectName, lobstore.ObjectSpec{
		Engine:          engine,
		LeafPages:       leaf,
		Threshold:       threshold,
		MaxSegmentPages: maxSeg,
	})
}

// fsck checks a durable database directory read-only and reports leaked
// and doubly-owned pages; verbose first prints the catalog listing. It
// reports whether the store is clean.
func fsck(dir string, verbose bool, out io.Writer) (bool, error) {
	rep, err := lobstore.Fsck(dir)
	if err != nil {
		return false, err
	}
	if verbose {
		printListing(out, dir, rep)
	}
	fmt.Fprintf(out, "fsck %s: %d object(s), %d reachable page(s), %d allocated page(s)\n",
		dir, rep.Objects, rep.ReachablePages, rep.AllocatedPages)
	for _, r := range rep.Leaked {
		fmt.Fprintf(out, "  leaked: %v\n", r)
	}
	for _, c := range rep.DoublyOwned {
		fmt.Fprintf(out, "  doubly-owned: %v\n", c)
	}
	if !rep.Clean() {
		fmt.Fprintf(out, "fsck %s: UNCLEAN — %d leaked range(s), %d ownership conflict(s)\n",
			dir, len(rep.Leaked), len(rep.DoublyOwned))
		return false, nil
	}
	fmt.Fprintf(out, "fsck %s: clean\n", dir)
	return true, nil
}

// printListing prints what Fsck's walk found: the catalog, each object's
// size, utilization and per-segment layout, and overall space use.
func printListing(out io.Writer, dir string, rep *lobstore.FsckReport) {
	cfg := rep.Config
	fmt.Fprintf(out, "database %s\n", dir)
	fmt.Fprintf(out, "  page size %d, max segment %d pages, pool %d/%d\n",
		cfg.PageSize, cfg.MaxSegmentPages, cfg.BufferPages, cfg.MaxBufferedRun)
	fmt.Fprintf(out, "  %d cataloged object(s)\n\n", rep.Objects)
	var totalBytes int64
	for _, o := range rep.Listing {
		if o.Engine == "records" {
			fmt.Fprintf(out, "%-24s %-10s (record file)\n", o.Name, o.Engine)
			continue
		}
		fmt.Fprintf(out, "%-24s %-10s %10d bytes  %4d segment(s)  %5.1f%% util  %d index page(s)\n",
			o.Name, o.Engine, o.Size, len(o.Layout.Segments), 100*o.Utilization.Ratio(), o.Layout.IndexPages)
		totalBytes += o.Size
		for i, s := range o.Layout.Segments {
			fmt.Fprintf(out, "    seg %4d: page %-8d x%-5d %10d bytes\n", i, s.StartPage, s.Pages, s.Bytes)
		}
	}
	fmt.Fprintf(out, "\ntotals: %d object bytes; %d data + %d metadata pages in use\n",
		totalBytes, rep.DataPages, rep.MetaPages)
}

func run(db *lobstore.DB, obj lobstore.Object, in io.Reader, out io.Writer) error {
	var filler workload.Filler
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		cmd, args := fields[0], fields[1:]
		stats, err := db.Measure(func() error {
			return apply(db, obj, &filler, out, cmd, args)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", line, err)
		}
		fmt.Fprintf(out, "%-30s  ios=%-4d pages=%-6d cost=%v\n",
			line, stats.Calls(), stats.Pages(), stats.Time)
	}
	return sc.Err()
}

func apply(db *lobstore.DB, obj lobstore.Object, filler *workload.Filler, out io.Writer, cmd string, args []string) error {
	size := func(i int) (int64, error) {
		if i >= len(args) {
			return 0, fmt.Errorf("missing argument %d", i+1)
		}
		return parseSize(args[i])
	}
	switch cmd {
	case "append":
		n, err := size(0)
		if err != nil {
			return err
		}
		return obj.Append(filler.Bytes(int(n)))
	case "insert":
		off, err := size(0)
		if err != nil {
			return err
		}
		n, err := size(1)
		if err != nil {
			return err
		}
		return obj.Insert(off, filler.Bytes(int(n)))
	case "delete":
		off, err := size(0)
		if err != nil {
			return err
		}
		n, err := size(1)
		if err != nil {
			return err
		}
		return obj.Delete(off, n)
	case "replace":
		off, err := size(0)
		if err != nil {
			return err
		}
		n, err := size(1)
		if err != nil {
			return err
		}
		return obj.Replace(off, filler.Bytes(int(n)))
	case "read":
		off, err := size(0)
		if err != nil {
			return err
		}
		n, err := size(1)
		if err != nil {
			return err
		}
		buf := make([]byte, n)
		if err := obj.Read(off, buf); err != nil {
			return err
		}
		preview := buf
		if len(preview) > 16 {
			preview = preview[:16]
		}
		fmt.Fprintf(out, "  data[%d:+%d] = % x…\n", off, n, preview)
		return nil
	case "scan":
		chunk, err := size(0)
		if err != nil {
			return err
		}
		return workload.Scan(obj, int(chunk))
	case "stat":
		u := obj.Utilization()
		fmt.Fprintf(out, "  size=%d bytes, utilization=%v\n", obj.Size(), u)
		st := db.Stats()
		frag := db.LeafFragmentation()
		fmt.Fprintf(out, "  ios=%d pages=%d seek=%d pages, %v\n",
			st.Calls(), st.Pages(), st.SeekDistance, frag)
		return nil
	case "dump":
		l, err := lobstore.Inspect(obj)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  %d segment(s), %d index page(s), %d index level(s)\n",
			len(l.Segments), l.IndexPages, l.IndexLevels)
		for i, s := range l.Segments {
			if i >= 20 {
				fmt.Fprintf(out, "  … %d more\n", len(l.Segments)-i)
				break
			}
			fmt.Fprintf(out, "  seg %3d: page %-6d x%-4d %8d bytes\n", i, s.StartPage, s.Pages, s.Bytes)
		}
		return nil
	case "close":
		return obj.Close()
	case "destroy":
		return obj.Destroy()
	case "help":
		fmt.Fprintln(out, "  commands: append insert delete replace read scan stat dump close destroy help")
		return nil
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("negative size")
	}
	return n * mult, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lobctl: "+format+"\n", args...)
	os.Exit(1)
}
