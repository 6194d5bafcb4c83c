package harness

import (
	"bytes"
	"testing"
)

// renderCSVWithTelemetry runs the named experiments and renders their tables,
// optionally with per-cell telemetry enabled.
func renderCSVWithTelemetry(t *testing.T, names []string, telemetry bool) (string, *Telemetry) {
	t.Helper()
	r := NewRunner(QuickConfig())
	var tel *Telemetry
	if telemetry {
		tel = r.EnableTelemetry()
	}
	var b bytes.Buffer
	err := r.RunAll(names, 2, func(e Experiment, tabs []*Table) error {
		for _, tab := range tabs {
			if err := tab.WriteCSV(&b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String(), tel
}

// TestTelemetryKeepsTablesByteIdentical pins the telemetry contract: sinks
// observe simulated time but never advance it, so enabling per-cell metrics
// must leave every paper table byte-identical.
func TestTelemetryKeepsTablesByteIdentical(t *testing.T) {
	names := []string{"ablation-poolrun"}
	plain, _ := renderCSVWithTelemetry(t, names, false)
	instrumented, tel := renderCSVWithTelemetry(t, names, true)
	if plain == "" {
		t.Fatal("experiment rendered no CSV")
	}
	if plain != instrumented {
		t.Fatalf("telemetry perturbed experiment output:\n--- plain ---\n%s--- instrumented ---\n%s", plain, instrumented)
	}

	cts := tel.Cells()
	if len(cts) == 0 {
		t.Fatal("telemetry recorded no cells")
	}
	for _, ct := range cts {
		if ct.WallUs() <= 0 {
			t.Errorf("cell %s has no wall time", ct.Key)
		}
		if ct.Metrics.Counter("io.read.calls")+ct.Metrics.Counter("io.write.calls") == 0 {
			t.Errorf("cell %s recorded no I/O", ct.Key)
		}
		if ct.MergedWall().N() == 0 {
			t.Errorf("cell %s has no wall-clock latency samples", ct.Key)
		}
	}
}

// TestExperimentWall checks the per-experiment merge: the HDR merged across
// an experiment's cells must contain every cell's samples.
func TestExperimentWall(t *testing.T) {
	name := "ablation-poolrun"
	_, tel := renderCSVWithTelemetry(t, []string{name}, true)
	h, err := tel.ExperimentWall(name)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, ct := range tel.Cells() {
		want += ct.MergedWall().N()
	}
	if h.N() == 0 || h.N() != want {
		t.Fatalf("experiment wall HDR has %d samples, cells total %d", h.N(), want)
	}
	if h.Quantile(0.99) <= 0 {
		t.Fatal("p99 of a non-empty wall HDR is not positive")
	}
	if _, err := tel.ExperimentWall("nosuch"); err == nil {
		t.Fatal("ExperimentWall accepted an unknown experiment")
	}
}
