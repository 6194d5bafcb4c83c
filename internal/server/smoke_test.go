package server

import (
	"bufio"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"lobstore"
	"lobstore/internal/loadgen"
)

// TestServeKillReopen is the end-to-end crash smoke test of the network
// stack: a child process runs the real serve entry point (RunServe, the
// code path of cmd/lobserve) on a file-backed store with group commit, the
// parent drives a mixed open-ended workload through loadgen, SIGKILLs the
// server mid-traffic, and then requires the directory to reopen with a
// clean fsck — the durable state must be crash-consistent no matter where
// in the pipeline the kill landed.
func TestServeKillReopen(t *testing.T) {
	if dir := os.Getenv("LOBSERVE_SMOKE_CHILD"); dir != "" {
		// Child: serve until killed. RunServe only returns on a signal or
		// a serve error; SIGKILL never lets it return at all.
		os.Exit(RunServe("lobserve", []string{
			"-addr", "127.0.0.1:0",
			"-backend", "file", "-dir", dir,
			"-group-commit", "4",
		}, os.Stderr))
	}
	if testing.Short() {
		t.Skip("subprocess smoke test")
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestServeKillReopen", "-test.v")
	cmd.Env = append(os.Environ(), "LOBSERVE_SMOKE_CHILD="+dir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	// The serve entry point logs the resolved address once listening.
	addr := ""
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
			addr = a
			break
		}
	}
	if addr == "" {
		t.Fatalf("child never reported a listen address: %v", sc.Err())
	}
	go func() { // drain so the child never blocks on a full stderr pipe
		for sc.Scan() {
		}
	}()

	// Mixed traffic, including deletes, far longer than we let it live.
	resCh := make(chan error, 1)
	go func() {
		_, err := loadgen.Run(loadgen.Spec{
			Addr:        addr,
			Objects:     4,
			ObjectBytes: 64 << 10,
			Mix:         loadgen.Mix{Read: 50, Append: 30, Insert: 10, Delete: 10},
			Clients:     4,
			Duration:    30 * time.Second,
			Seed:        1,
		})
		resCh <- err
	}()

	// Let preload and a burst of measured traffic through, prove the
	// server is still alive and serving, then kill -9 mid-flight.
	time.Sleep(2 * time.Second)
	c, err := loadgen.Dial(addr)
	if err != nil {
		t.Fatalf("server not reachable before kill: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping before kill: %v", err)
	}
	c.Close() //lobvet:ignore errdiscard — probe connection
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	// The generator must notice the dead server and abort with a
	// transport error rather than spinning to its deadline.
	select {
	case err := <-resCh:
		if err == nil {
			t.Error("load run reported success against a SIGKILLed server")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("load generator did not abort after the server died")
	}

	// The durable directory must recover: clean fsck, reopenable store.
	rep, err := lobstore.Fsck(dir)
	if err != nil {
		t.Fatalf("fsck after kill: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("fsck found %d leaked, %d doubly-owned extents after kill",
			len(rep.Leaked), len(rep.DoublyOwned))
	}
	cfg := lobstore.DefaultConfig()
	cfg.Backend, cfg.Dir = "file", dir
	db, err := lobstore.Open(cfg)
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer db.Close()
	// Whatever subset of the working set committed must be readable.
	reopened := 0
	for _, name := range []string{"lg-0", "lg-1", "lg-2", "lg-3"} {
		obj, err := db.OpenObject(name)
		if err != nil {
			continue // killed before this object's create committed
		}
		if size := obj.Size(); size > 0 {
			buf := make([]byte, min(int(size), 4096))
			if err := obj.Read(0, buf); err != nil {
				t.Fatalf("read of recovered object %s: %v", name, err)
			}
		}
		reopened++
	}
	if reopened == 0 && rep.Objects > 0 {
		t.Fatalf("catalog reports %d objects but none reopened", rep.Objects)
	}
	t.Logf("recovered %d/%d objects, fsck clean", reopened, 4)
}
