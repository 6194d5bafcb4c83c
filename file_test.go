package lobstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"lobstore"
	"lobstore/internal/filevol"
)

// fileConfig returns a small file-backed configuration rooted at dir.
func fileConfig(dir string) lobstore.Config {
	cfg := testConfig()
	cfg.Backend = "file"
	cfg.Dir = dir
	return cfg
}

// TestFileBackendRoundTrip: a file-backed database persists objects of all
// three engines across a clean close and reopen, and fsck finds nothing.
func TestFileBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := lobstore.Open(fileConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mirrors := map[string][]byte{}
	for _, e := range []struct{ name, engine string }{
		{"a", "esm"}, {"b", "starburst"}, {"c", "eos"},
	} {
		obj, err := db.Create(e.name, lobstore.ObjectSpec{
			Engine: e.engine, LeafPages: 2, Threshold: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte(e.name), 30_000)
		if err := obj.Append(data); err != nil {
			t.Fatal(err)
		}
		if err := obj.Insert(100, []byte("<mark>")); err != nil {
			t.Fatal(err)
		}
		data = append(data[:100:100], append([]byte("<mark>"), data[100:]...)...)
		mirrors[e.name] = data
		if err := obj.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := lobstore.Open(fileConfig(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	// Geometry comes from the superblock, not the caller.
	if got := db2.Config().MaxSegmentPages; got != testConfig().MaxSegmentPages {
		t.Fatalf("reopened MaxSegmentPages = %d, want %d", got, testConfig().MaxSegmentPages)
	}
	for name, want := range mirrors {
		obj, err := db2.OpenObject(name)
		if err != nil {
			t.Fatalf("open %s after reopen: %v", name, err)
		}
		got := make([]byte, obj.Size())
		if err := obj.Read(0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s lost data across close/reopen", name)
		}
		if err := obj.Append([]byte("second session")); err != nil {
			t.Fatalf("%s: append after reopen: %v", name, err)
		}
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := lobstore.Fsck(dir)
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("fsck found %d leaked ranges, %d ownership conflicts: %v %v",
			len(rep.Leaked), len(rep.DoublyOwned), rep.Leaked, rep.DoublyOwned)
	}
	if rep.Objects != 3 || rep.ReachablePages == 0 {
		t.Fatalf("fsck scanned %d objects, %d reachable pages", rep.Objects, rep.ReachablePages)
	}
}

// TestFileBarriersAlwaysCounted: the file volume runs its commit pipeline
// on every barrier, so with the zero-value GroupCommit a traced run still
// reports device flushes — as batches of one — while the same operations
// on the mem backend, which has no durability, report neither counter.
func TestFileBarriersAlwaysCounted(t *testing.T) {
	counters := func(cfg lobstore.Config) (fsyncs, acks, batches int64) {
		t.Helper()
		db, err := lobstore.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		m := db.EnableMetrics(nil)
		obj, err := db.NewEOS(4)
		if err != nil {
			t.Fatal(err)
		}
		if err := obj.Append(bytes.Repeat([]byte("a"), 40_000)); err != nil {
			t.Fatal(err)
		}
		if err := obj.Insert(10_000, bytes.Repeat([]byte("b"), 5_000)); err != nil {
			t.Fatal(err)
		}
		return m.Counter("vol.fsyncs"), m.Counter("vol.groupcommit.acks"), m.Counter("vol.groupcommit.batches")
	}

	fsyncs, acks, batches := counters(fileConfig(t.TempDir()))
	if fsyncs == 0 || batches == 0 {
		t.Fatalf("file backend: vol.fsyncs = %d, vol.groupcommit.batches = %d, want both > 0", fsyncs, batches)
	}
	if acks != batches {
		t.Fatalf("file backend, GroupCommit off: %d acks over %d batches, want batches of one", acks, batches)
	}
	if fsyncs, acks, batches := counters(testConfig()); fsyncs != 0 || acks != 0 || batches != 0 {
		t.Fatalf("mem backend counted flushes: vol.fsyncs = %d, acks = %d, batches = %d", fsyncs, acks, batches)
	}
}

// TestFileCrashMatrix is the durable counterpart of TestCrashSweep: for
// every engine and every update operation, inject a power cut at each
// successive sync barrier of the operation — dropping all writes since the
// previous barrier, as a kernel that never flushed would — then reopen the
// directory and require the object to hold exactly the pre-operation or
// the post-operation bytes. A recovered-and-closed store must also pass
// fsck with zero leaked and zero doubly-owned pages.
func TestFileCrashMatrix(t *testing.T) {
	type opFn func(obj lobstore.Object, mirror []byte) ([]byte, error)
	appendOp := func(obj lobstore.Object, mirror []byte) ([]byte, error) {
		data := bytes.Repeat([]byte{0xAD}, 11_000)
		if err := obj.Append(data); err != nil {
			return nil, err
		}
		return append(append([]byte{}, mirror...), data...), nil
	}
	insertOp := func(obj lobstore.Object, mirror []byte) ([]byte, error) {
		data := bytes.Repeat([]byte{0xEE}, 9_000)
		off := int64(len(mirror) / 3)
		if err := obj.Insert(off, data); err != nil {
			return nil, err
		}
		return append(mirror[:off:off], append(append([]byte{}, data...), mirror[off:]...)...), nil
	}
	deleteOp := func(obj lobstore.Object, mirror []byte) ([]byte, error) {
		off, n := int64(len(mirror)/4), int64(7_000)
		if err := obj.Delete(off, n); err != nil {
			return nil, err
		}
		return append(mirror[:off:off], mirror[off+n:]...), nil
	}
	ops := []struct {
		name string
		fn   opFn
	}{{"append", appendOp}, {"insert", insertOp}, {"delete", deleteOp}}

	specs := []struct {
		name string
		spec lobstore.ObjectSpec
	}{
		{"esm", lobstore.ObjectSpec{Engine: "esm", LeafPages: 2}},
		{"eos", lobstore.ObjectSpec{Engine: "eos", Threshold: 4}},
		{"starburst", lobstore.ObjectSpec{Engine: "starburst", MaxSegmentPages: 16}},
	}

	// setup builds the committed pre-operation state and returns the open
	// object plus its byte mirror.
	setup := func(t *testing.T, db *lobstore.DB, spec lobstore.ObjectSpec) (lobstore.Object, []byte) {
		t.Helper()
		obj, err := db.Create("x", spec)
		if err != nil {
			t.Fatal(err)
		}
		before := bytes.Repeat([]byte{0xAA, 0xBB, 0xCC}, 20_000) // 60 KB
		if err := obj.Append(before); err != nil {
			t.Fatal(err)
		}
		return obj, before
	}

	// The whole matrix runs twice: once with groups of one, once with
	// group commit (groups of up to 4) — the cuts then land between a
	// commit group's data writes and its shared fsync. Recovery always
	// reopens with group commit off, so the second leg also proves the
	// modes agree on the durable state: same recovered bytes, same fsck.
	modes := []struct {
		name     string
		pipeline bool
	}{{"", false}, {"-pipeline", true}}

	for _, mode := range modes {
		for _, sc := range specs {
			for _, op := range ops {
				t.Run(sc.name+"-"+op.name+mode.name, func(t *testing.T) {
					// Dry run: count the operation's sync barriers.
					cfg := fileConfig(t.TempDir())
					cfg.CrashInjection = true
					if mode.pipeline {
						cfg.GroupCommit = lobstore.GroupCommit{MaxBatch: 4}
					}
					db, err := lobstore.Open(cfg)
					if err != nil {
						t.Fatal(err)
					}
					obj, before := setup(t, db, sc.spec)
					b0, err := db.SyncBarriers()
					if err != nil {
						t.Fatal(err)
					}
					after, err := op.fn(obj, before)
					if err != nil {
						t.Fatalf("dry run op: %v", err)
					}
					b1, err := db.SyncBarriers()
					if err != nil {
						t.Fatal(err)
					}
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					barriers := b1 - b0
					if barriers < 2 {
						t.Fatalf("operation crossed %d barriers, expected pre- and post-commit", barriers)
					}

					// The injected cut fires at the START of barrier k, before
					// its fsync, so even at the post-commit barrier the commit
					// write is still volatile and gets dropped. Sweep one
					// barrier further (forced by a checkpoint) to cover the
					// machine dying right after the operation became durable.
					postSeen := false
					for k := int64(1); k <= barriers+1; k++ {
						cfg := fileConfig(t.TempDir())
						cfg.CrashInjection = true
						if mode.pipeline {
							cfg.GroupCommit = lobstore.GroupCommit{MaxBatch: 4}
						}
						db, err := lobstore.Open(cfg)
						if err != nil {
							t.Fatal(err)
						}
						obj, _ := setup(t, db, sc.spec)
						if err := db.InjectPowerCut(k); err != nil {
							t.Fatal(err)
						}
						_, opErr := op.fn(obj, before)
						if opErr == nil {
							// The operation survived all its own barriers; the
							// checkpoint provides barrier B+1.
							if cerr := db.Checkpoint(); cerr == nil {
								t.Fatalf("cut@%d: no barrier fired the cut", k)
							}
						}
						// The dead volume keeps every later I/O from touching
						// the files; the directory now looks exactly like the
						// machine lost power at barrier k.

						rec, err := lobstore.Open(fileConfig(cfg.Dir))
						if err != nil {
							t.Fatalf("cut@%d: reopen failed: %v", k, err)
						}
						robj, err := rec.OpenObject("x")
						if err != nil {
							t.Fatalf("cut@%d: open after recovery: %v", k, err)
						}
						got := make([]byte, robj.Size())
						if err := robj.Read(0, got); err != nil {
							t.Fatalf("cut@%d: read: %v", k, err)
						}
						switch {
						case bytes.Equal(got, before):
							if opErr == nil {
								t.Fatalf("cut@%d: op reported success but pre-op bytes recovered", k)
							}
						case bytes.Equal(got, after):
							postSeen = true
						default:
							t.Fatalf("cut@%d: recovered %d bytes matching neither pre-op (%d) nor post-op (%d) version (op err: %v)",
								k, len(got), len(before), len(after), opErr)
						}

						if err := rec.Close(); err != nil {
							t.Fatalf("cut@%d: close recovered db: %v", k, err)
						}
						rep, err := lobstore.Fsck(cfg.Dir)
						if err != nil {
							t.Fatalf("cut@%d: fsck: %v", k, err)
						}
						if !rep.Clean() {
							t.Fatalf("cut@%d: fsck after recovery: %d leaked, %d doubly-owned: %v %v",
								k, len(rep.Leaked), len(rep.DoublyOwned), rep.Leaked, rep.DoublyOwned)
						}
					}
					// The cut at the very last barrier lands after the commit
					// write is durable, so the post-op version must show up at
					// least once.
					if !postSeen {
						t.Fatal("no cut position recovered the post-operation version")
					}
				})
			}
		}
	}
}

// TestPowerCutErrorSurfacing: the injected cut surfaces as
// filevol.ErrPowerCut through the public operation API.
func TestPowerCutErrorSurfacing(t *testing.T) {
	cfg := fileConfig(t.TempDir())
	cfg.CrashInjection = true
	db, err := lobstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := db.Create("x", lobstore.ObjectSpec{Engine: "eos", Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InjectPowerCut(1); err != nil {
		t.Fatal(err)
	}
	if err := obj.Append(bytes.Repeat([]byte{1}, 50_000)); !errors.Is(err, filevol.ErrPowerCut) {
		t.Fatalf("append after armed cut = %v, want ErrPowerCut", err)
	}
}

// TestOpenWriteKillReopen is the smoke test of the durable path under a
// real process death: a child process appends committed chunks to a
// file-backed store and is SIGKILLed mid-run; the parent reopens the
// directory, requires every chunk the child reported committed to be
// intact, and fsck to come up clean.
func TestOpenWriteKillReopen(t *testing.T) {
	if os.Getenv("LOBSTORE_KILL_CHILD") != "" {
		killChildMain(t)
		return
	}
	// The child writes with group commit off and on; the parent always
	// recovers with it off, so the second leg doubles as a cross-mode check
	// on the durable state.
	for _, mode := range []struct {
		name     string
		pipeline string
	}{{"plain", ""}, {"pipeline", "1"}} {
		t.Run(mode.name, func(t *testing.T) { runKillReopen(t, mode.pipeline) })
	}
}

func runKillReopen(t *testing.T, pipeline string) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestOpenWriteKillReopen", "-test.v")
	cmd.Env = append(os.Environ(),
		"LOBSTORE_KILL_CHILD="+dir,
		"LOBSTORE_KILL_PIPELINE="+pipeline)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Read committed-chunk reports until enough progress, then kill -9.
	committed := 0
	buf := make([]byte, 4096)
	var pending strings.Builder
	deadline := time.Now().Add(30 * time.Second)
	for committed < 5 && time.Now().Before(deadline) {
		n, err := stdout.Read(buf)
		if n > 0 {
			pending.Write(buf[:n])
			committed = strings.Count(pending.String(), "committed ")
		}
		if err != nil {
			break
		}
	}
	if committed == 0 {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatalf("child made no progress; output: %s", pending.String())
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
		t.Fatal(err)
	}
	_ = cmd.Wait()

	db, err := lobstore.Open(fileConfig(dir))
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	obj, err := db.OpenObject("survivor")
	if err != nil {
		t.Fatalf("open object after kill: %v", err)
	}
	const chunk = 10_000
	size := obj.Size()
	if size%chunk != 0 {
		t.Fatalf("recovered size %d is not a whole number of committed chunks", size)
	}
	if got := int(size / chunk); got < committed {
		t.Fatalf("child committed %d chunks, only %d recovered", committed, got)
	}
	data := make([]byte, size)
	if err := obj.Read(0, data); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < size/chunk; i++ {
		want := bytes.Repeat([]byte{byte(i)}, chunk)
		if !bytes.Equal(data[i*chunk:(i+1)*chunk], want) {
			t.Fatalf("chunk %d corrupted after kill", i)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := lobstore.Fsck(dir)
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("fsck after kill+reopen: %v %v", rep.Leaked, rep.DoublyOwned)
	}
}

// killChildMain is the child side of TestOpenWriteKillReopen: append
// chunks forever, reporting each committed one on stdout.
func killChildMain(t *testing.T) {
	dir := os.Getenv("LOBSTORE_KILL_CHILD")
	cfg := fileConfig(dir)
	if os.Getenv("LOBSTORE_KILL_PIPELINE") != "" {
		cfg.GroupCommit = lobstore.GroupCommit{MaxBatch: 4}
	}
	db, err := lobstore.Open(cfg)
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	obj, err := db.Create("survivor", lobstore.ObjectSpec{Engine: "eos", Threshold: 4})
	if err != nil {
		t.Fatalf("child create: %v", err)
	}
	const chunk = 10_000
	for i := 0; ; i++ {
		if err := obj.Append(bytes.Repeat([]byte{byte(i)}, chunk)); err != nil {
			t.Fatalf("child append %d: %v", i, err)
		}
		// The append's RunOp has returned: its post-commit barrier made it
		// durable, so the parent may count on this chunk surviving.
		fmt.Println("committed", strconv.Itoa(i))
	}
}
