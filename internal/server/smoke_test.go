package server

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"lobstore"
	"lobstore/internal/wire"
)

const (
	// killMinAcks is the number of acknowledged mutations every connection
	// must reach before the server is killed.
	killMinAcks = 200
	// killMaxWrite bounds one append or insert payload, and one delete.
	killMaxWrite = 8 << 10
	// killMaxBytes stops an object growing: at this size only deletes run.
	killMaxBytes = 256 << 10
)

// killEngines gives each connection of TestServeKillReopen its object's
// storage structure, so the crash lands on all three.
var killEngines = []struct {
	name  string
	code  byte
	param uint32
}{
	{"eos", wire.EngineEOS, 16},
	{"esm", wire.EngineESM, 4},
	{"starburst", wire.EngineStarburst, 0},
	{"eos", wire.EngineEOS, 4},
}

// killMut is one mutation of an object. seq is its index in the object's
// sequence (the Create is 0) and names the payload an append or insert
// writes.
type killMut struct {
	op     byte // wire.OpCreate, OpAppend, OpInsert or OpDelete
	seq    int
	off, n int64
}

// killPayload is the data that mutation m writes into object obj: seeded,
// so every byte names the mutation that wrote it.
func killPayload(obj int, m killMut) []byte {
	b := make([]byte, m.n)
	for i := range b {
		x := uint64(obj)<<56 ^ uint64(m.seq)<<32 ^ uint64(i)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		b[i] = byte(x)
	}
	return b
}

// killApply returns object obj's content b after mutation m.
func killApply(b []byte, obj int, m killMut) []byte {
	switch m.op {
	case wire.OpAppend:
		return append(b, killPayload(obj, m)...)
	case wire.OpInsert:
		return slices.Insert(b, int(m.off), killPayload(obj, m)...)
	case wire.OpDelete:
		return slices.Delete(b, int(m.off), int(m.off+m.n))
	}
	return b
}

// killModel is what one connection knows about the object it owns: the
// content after every acknowledged mutation, and the mutation in flight
// when the server died. After the crash the object must equal the model
// after some prefix p of its mutations, acked ≤ p ≤ acked+1.
type killModel struct {
	obj      int
	name     string
	acked    []byte
	acks     atomic.Int64 // acknowledged mutations, the Create included
	size     atomic.Int64 // len(acked), for the reading connection
	inflight *killMut
}

// next draws mutation seq from the seeded closed loop: appends, inserts
// and deletes, deletes only once the object reaches killMaxBytes.
func (m *killModel) next(rng *rand.Rand, seq int) killMut {
	if seq == 0 {
		return killMut{op: wire.OpCreate}
	}
	size, n := int64(len(m.acked)), 1+rng.Int63n(killMaxWrite)
	grow := size < killMaxBytes
	switch r := rng.Intn(10); {
	case size == 0 || grow && r < 4:
		return killMut{op: wire.OpAppend, seq: seq, n: n}
	case grow && r < 7:
		return killMut{op: wire.OpInsert, seq: seq, off: rng.Int63n(size + 1), n: n}
	default:
		off := rng.Int63n(size)
		return killMut{op: wire.OpDelete, seq: seq, off: off, n: min(n, size-off)}
	}
}

func (m *killModel) request(mut killMut) []byte {
	name := []byte(m.name)
	switch mut.op {
	case wire.OpCreate:
		e := killEngines[m.obj]
		return wire.AppendCreateReq(nil, wire.CreateReq{Name: name, Engine: e.code, Param: e.param})
	case wire.OpAppend:
		return wire.AppendAppendReq(nil, wire.AppendReqMsg{Name: name, Data: killPayload(m.obj, mut)})
	case wire.OpInsert:
		return wire.AppendInsertReq(nil, wire.InsertReq{Name: name, Off: uint64(mut.off), Data: killPayload(m.obj, mut)})
	default:
		return wire.AppendDeleteReq(nil, wire.DeleteReq{Name: name, Off: uint64(mut.off), Len: uint64(mut.n)})
	}
}

// drive runs the connection's closed loop until the transport fails, and
// returns nil if that happened after the kill. A reply's size must equal
// the model's size after that mutation: the connection owns its object,
// so no other client moves it.
func (m *killModel) drive(c *testClient, rng *rand.Rand, killed *atomic.Bool) error {
	for seq := 0; ; seq++ {
		mut := m.next(rng, seq)
		m.inflight = &mut
		typ, body, err := c.tryCall(mut.op, m.request(mut))
		if err != nil {
			if killed.Load() {
				return nil
			}
			return fmt.Errorf("mutation %d before the kill: %w", seq, err)
		}
		if typ != wire.RespOK {
			return fmt.Errorf("mutation %d: response type %#x: %s", seq, typ, body)
		}
		ok, err := wire.ParseOKResp(body)
		if err != nil {
			return fmt.Errorf("mutation %d: %w", seq, err)
		}
		m.acked = killApply(m.acked, m.obj, mut)
		m.inflight = nil
		m.size.Store(int64(len(m.acked)))
		m.acks.Add(1)
		if ok.Size != uint64(len(m.acked)) {
			return fmt.Errorf("mutation %d (op %#x): reply size %d, model size %d", seq, mut.op, ok.Size, len(m.acked))
		}
	}
}

// killRead keeps reading random ranges of the models' objects until the
// transport fails, and returns nil if that happened after the kill. Its
// reads pin versions, so the kill lands while commits defer frees. It
// checks nothing of what it reads, and ignores error replies: a range
// may be gone by the time its read runs.
func killRead(c *testClient, models []*killModel, killed *atomic.Bool) error {
	rng := rand.New(rand.NewSource(int64(len(models) + 1)))
	for {
		m := models[rng.Intn(len(models))]
		var off, n int64
		if size := m.size.Load(); size > 0 {
			off = rng.Int63n(size)
			n = 1 + rng.Int63n(min(size-off, 32<<10))
		}
		req := wire.AppendReadReq(nil, wire.ReadReq{Name: []byte(m.name), Off: uint64(off), Len: uint32(n)})
		if _, _, err := c.tryCall(wire.OpRead, req); err != nil {
			if killed.Load() {
				return nil
			}
			return fmt.Errorf("read before the kill: %w", err)
		}
	}
}

// prefix returns the p such that got is the object after its first p
// mutations, trying the mutation in flight first.
func (m *killModel) prefix(got []byte) (int64, error) {
	acked := m.acks.Load()
	if m.inflight != nil && bytes.Equal(got, killApply(slices.Clone(m.acked), m.obj, *m.inflight)) {
		return acked + 1, nil
	}
	if bytes.Equal(got, m.acked) {
		return acked, nil
	}
	i := 0
	for i < min(len(got), len(m.acked)) && got[i] == m.acked[i] {
		i++
	}
	return 0, fmt.Errorf("%d bytes match no prefix of %d acknowledged mutations (+1 in flight: %v): acknowledged state has %d bytes, first difference at byte %d",
		len(got), acked, m.inflight != nil, len(m.acked), i)
}

// TestServeKillReopen is the served stack's "acknowledged means durable"
// check. A child process runs the real serve entry point (RunServe, the
// code path of `lobctl serve`) on a file-backed store with group commit.
// The parent drives it over four connections, each running a seeded
// closed loop of appends, inserts and deletes on an object of its own,
// plus a fifth that keeps reading all four, and SIGKILLs the server
// mid-traffic. The directory must then fsck clean and reopen, and every
// object must equal its model after some prefix of its mutations that
// holds every acknowledged one and at most the one in flight.
func TestServeKillReopen(t *testing.T) {
	if dir := os.Getenv("SERVE_KILL_CHILD"); dir != "" {
		// Child: serve until killed. RunServe only returns on a signal or
		// a serve error; SIGKILL never lets it return at all.
		os.Exit(RunServe("lobctl serve", []string{
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
	cmd.Env = append(os.Environ(), "SERVE_KILL_CHILD="+dir)
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

	var killed atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, len(killEngines)+1)
	models := make([]*killModel, len(killEngines))
	for i := range models {
		m := &killModel{obj: i, name: fmt.Sprintf("kill-%d", i)}
		models[i] = m
		c := dialClient(t, addr)
		rng := rand.New(rand.NewSource(int64(i + 1)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.drive(c, rng, &killed); err != nil {
				errc <- fmt.Errorf("%s: %w", m.name, err)
			}
		}()
	}
	reader := dialClient(t, addr)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := killRead(reader, models, &killed); err != nil {
			errc <- err
		}
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()

	// Kill -9 once every writing connection has had killMinAcks mutations
	// acknowledged; each then has its next one in flight, and so every
	// Create has been acknowledged.
	deadline := time.After(20 * time.Second)
	for ready := false; !ready; {
		select {
		case err := <-errc:
			t.Fatal(err)
		case <-deadline:
			t.Fatal("connections made too little progress before the kill")
		case <-time.After(5 * time.Millisecond):
		}
		ready = true
		for _, m := range models {
			ready = ready && m.acks.Load() >= killMinAcks
		}
	}
	killed.Store(true)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("connections did not notice the dead server")
	}
	close(errc)
	for err := range errc {
		t.Fatal(err)
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
	for _, m := range models {
		obj, err := db.OpenObject(m.name)
		if err != nil {
			t.Errorf("%s: reopen after %d acknowledged mutations: %v", m.name, m.acks.Load(), err)
			continue
		}
		got := make([]byte, obj.Size())
		if err := obj.Read(0, got); len(got) > 0 && err != nil {
			t.Errorf("%s: read of recovered object: %v", m.name, err)
			continue
		}
		p, err := m.prefix(got)
		if err != nil {
			t.Errorf("%s (%s): %v", m.name, killEngines[m.obj].name, err)
			continue
		}
		t.Logf("%s (%s): %d bytes, prefix %d of %d acknowledged mutations", m.name, killEngines[m.obj].name, len(got), p, m.acks.Load())
	}
}
