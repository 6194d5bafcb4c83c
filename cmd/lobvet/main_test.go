package main

import (
	"os"
	"strings"
	"testing"
)

// capture runs lobvet with args, returning the exit code and combined
// output.
func capture(t *testing.T, args ...string) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "lobvet-out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	code := run(args, f, f)
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(data)
}

func TestList(t *testing.T) {
	code, out := capture(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, name := range []string{"fixunfix", "spanend", "determinism", "errdiscard", "barrierorder", "locksafe"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %s:\n%s", name, out)
		}
	}
}

func TestCleanPackage(t *testing.T) {
	code, out := capture(t, "./internal/sim")
	if code != 0 {
		t.Fatalf("exit %d over a clean package:\n%s", code, out)
	}
}

func TestOnlySelectsAnalyzers(t *testing.T) {
	code, out := capture(t, "-only", "determinism,errdiscard", "./internal/sim")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	if code, _ := capture(t, "-only", "nope"); code != 2 {
		t.Fatalf("unknown analyzer: exit %d, want 2", code)
	}
}

func TestBadPattern(t *testing.T) {
	if code, _ := capture(t, "./no/such/dir"); code != 2 {
		t.Fatalf("bad pattern: exit %d, want 2", code)
	}
}

// TestFindingFailsRun pins the whole gate: a package with findings makes
// lobvet print them and exit 1.
func TestFindingFailsRun(t *testing.T) {
	code, out := capture(t, "./internal/analysis/testdata/spanend")
	if code != 1 {
		t.Fatalf("exit %d over a package with findings, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "spanend.go:") || !strings.Contains(out, "finding(s)") {
		t.Fatalf("findings not printed:\n%s", out)
	}
}
