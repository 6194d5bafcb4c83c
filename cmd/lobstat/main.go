// Command lobstat inspects a file-backed database directory: the catalog,
// each object's size, utilization and physical layout, and overall space
// use. It prints what lobstore.Fsck's walk finds and, like it, opens the
// area files read-only.
//
//	lobbench …                 # run experiments
//	lobctl …                   # drive one object interactively
//	lobstat dbdir              # what is inside this database?
//	lobstat -v dbdir           # include per-segment layout
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lobstore"
)

func main() {
	verbose := flag.Bool("v", false, "print per-segment layout of every object")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lobstat [-v] <database-dir>")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *verbose, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "lobstat: %v\n", err)
		os.Exit(1)
	}
}

func run(dir string, verbose bool, out io.Writer) error {
	rep, err := lobstore.Fsck(dir)
	if err != nil {
		return err
	}
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
		if verbose {
			for i, s := range o.Layout.Segments {
				fmt.Fprintf(out, "    seg %4d: page %-8d x%-5d %10d bytes\n", i, s.StartPage, s.Pages, s.Bytes)
			}
		}
	}
	fmt.Fprintf(out, "\ntotals: %d object bytes; %d data + %d metadata pages in use\n",
		totalBytes, rep.DataPages, rep.MetaPages)
	return nil
}
