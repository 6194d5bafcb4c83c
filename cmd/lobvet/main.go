// Command lobvet runs the storage-engine invariant analyzers of
// internal/analysis over this module:
//
//	go run ./cmd/lobvet ./...
//
// Analyzers: fixunfix (every buffer pool fix is unfixed on all paths),
// spanend (every tracing span is ended), determinism (no wall clock or
// global math/rand inside simulation packages), errdiscard (no silently
// dropped errors; %w over %v for wrapped errors), barrierorder (§3.3
// commit ordering on engine mutation paths), locksafe (unlock on all
// paths, lock-ordering lattice, no durability work under a latch).
//
// All loaded packages share one interprocedural summary program, so a
// helper releasing a handle in another package still counts at the call
// site. A finding is suppressed by an explained comment on the offending
// line or the one above; stale suppressions are themselves reported.
//
// Exit status: 0 clean, 1 findings, 2 usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"lobstore/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("lobvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	tests := fs.Bool("tests", false, "also analyze in-package _test.go files")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	verbose := fs.Bool("v", false, "also print suppressed findings")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: lobvet [flags] [packages]\n\npackages default to ./...\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "lobvet: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "lobvet: %v\n", err)
		return 2
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintf(stderr, "lobvet: %v\n", err)
		return 2
	}
	loader.Tests = *tests

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "lobvet: %v\n", err)
		return 2
	}

	// Load everything first: the interprocedural summaries want the whole
	// package set before the first analyzer runs.
	pkgs := make([]*analysis.Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(stderr, "lobvet: %v\n", err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}
	prog := analysis.NewProgram(loader.Packages())

	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, analysis.RunProgram(prog, pkg, analyzers)...)
	}

	findings, suppressed := 0, 0
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
			if *verbose {
				fmt.Fprintf(stdout, "%s [suppressed: %s]\n", d, d.SuppressReason)
			}
			continue
		}
		findings++
		fmt.Fprintln(stdout, d)
	}

	if *verbose || findings > 0 {
		fmt.Fprintf(stdout, "lobvet: %d finding(s), %d suppressed, %d package(s)\n",
			findings, suppressed, len(dirs))
	}
	if findings > 0 {
		return 1
	}
	return 0
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
