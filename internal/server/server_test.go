package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"

	"lobstore"
	"lobstore/internal/wire"
)

// testDB opens a mem-backed concurrent DB sized for tests.
func testDB(t testing.TB) *lobstore.DB {
	t.Helper()
	cfg := lobstore.DefaultConfig()
	cfg.Concurrent = true
	cfg.BufferPages = lobstore.MinConcurrentBufferPages
	cfg.LeafAreaPages = 1 << 14
	cfg.MetaAreaPages = 1 << 12
	cfg.MaxSegmentPages = 512
	db, err := lobstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// startServer serves db on a loopback listener and returns its address.
func startServer(t testing.TB, db *lobstore.DB, opts Options) (*Server, string) {
	t.Helper()
	s, err := New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := s.Serve(ln); err != nil && !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		s.Close(ln)
		<-done
	})
	return s, ln.Addr().String()
}

// testClient is a minimal synchronous protocol client for tests: one
// request in flight unless the test drives pipelining by hand.
type testClient struct {
	t    testing.TB
	conn net.Conn
	r    *wire.Reader
	id   uint32
	enc  []byte
	body []byte
}

func dialClient(t testing.TB, addr string) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &testClient{t: t, conn: conn, r: wire.NewReader(conn, 0)}
}

// send writes one request frame and returns its request id.
func (c *testClient) send(op byte, payload []byte) uint32 {
	c.t.Helper()
	id, err := c.trySend(op, payload)
	if err != nil {
		c.t.Fatal(err)
	}
	return id
}

func (c *testClient) trySend(op byte, payload []byte) (uint32, error) {
	c.id++
	c.enc = c.enc[:0]
	var hdr [wire.HeaderSize]byte
	wire.PutHeader(hdr[:], wire.Header{Type: op, Flags: wire.FlagLast, ReqID: c.id, Len: uint32(len(payload))})
	c.enc = append(append(c.enc, hdr[:]...), payload...)
	_, err := c.conn.Write(c.enc)
	return c.id, err
}

// recv reads one response frame.
func (c *testClient) recv() (wire.Header, []byte) {
	c.t.Helper()
	h, body, err := c.tryRecv()
	if err != nil {
		c.t.Fatal(err)
	}
	return h, body
}

func (c *testClient) tryRecv() (wire.Header, []byte, error) {
	h, err := c.r.Next()
	if err != nil {
		return h, nil, err
	}
	c.body, err = c.r.Payload(h, c.body)
	return h, c.body, err
}

// call sends one request and collects its full (possibly streamed)
// response; responses for other ids fail the test.
func (c *testClient) call(op byte, payload []byte) (byte, []byte) {
	c.t.Helper()
	typ, out, err := c.tryCall(op, payload)
	if err != nil {
		c.t.Fatal(err)
	}
	return typ, out
}

// tryCall is call returning transport errors instead of failing the test,
// so a goroutine other than the test's may drive the client.
func (c *testClient) tryCall(op byte, payload []byte) (byte, []byte, error) {
	id, err := c.trySend(op, payload)
	if err != nil {
		return 0, nil, err
	}
	var out []byte
	for {
		h, body, err := c.tryRecv()
		if err != nil {
			return 0, nil, err
		}
		if h.ReqID != id {
			return 0, nil, fmt.Errorf("response for id %d, want %d", h.ReqID, id)
		}
		out = append(out, body...)
		if h.Last() {
			return h.Type, out, nil
		}
	}
}

func (c *testClient) mustOK(op byte, payload []byte) uint64 {
	c.t.Helper()
	typ, body := c.call(op, payload)
	if typ == wire.RespErr {
		c.t.Fatalf("op %#x: server error: %s", op, body)
	}
	if typ != wire.RespOK {
		c.t.Fatalf("op %#x: response type %#x", op, typ)
	}
	ok, err := wire.ParseOKResp(body)
	if err != nil {
		c.t.Fatal(err)
	}
	return ok.Size
}

func TestServerRequiresConcurrent(t *testing.T) {
	cfg := lobstore.DefaultConfig()
	db, err := lobstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(db, Options{}); !errors.Is(err, lobstore.ErrConfig) {
		t.Fatalf("New on a non-concurrent DB: %v, want ErrConfig", err)
	}
}

// TestServeCRUD drives every opcode end-to-end over a real socket.
func TestServeCRUD(t *testing.T) {
	db := testDB(t)
	defer db.Close()
	_, addr := startServer(t, db, Options{})
	c := dialClient(t, addr)

	c.mustOK(wire.OpPing, nil)

	name := []byte("obj")
	c.mustOK(wire.OpCreate, wire.AppendCreateReq(nil, wire.CreateReq{Name: name, Engine: wire.EngineEOS, Param: 4}))

	data := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16 KiB
	size := c.mustOK(wire.OpAppend, wire.AppendAppendReq(nil, wire.AppendReqMsg{Name: name, Data: data}))
	if size != uint64(len(data)) {
		t.Fatalf("append reported size %d, want %d", size, len(data))
	}

	typ, body := c.call(wire.OpStat, wire.AppendStatReq(nil, wire.StatReq{Name: name}))
	if typ != wire.RespStat {
		t.Fatalf("stat response type %#x: %s", typ, body)
	}
	st, err := wire.ParseStatResp(body)
	if err != nil || st.Size != uint64(len(data)) {
		t.Fatalf("stat %+v (%v), want size %d", st, err, len(data))
	}

	typ, got := c.call(wire.OpRead, wire.AppendReadReq(nil, wire.ReadReq{Name: name, Off: 16, Len: 4096}))
	if typ != wire.RespData {
		t.Fatalf("read response type %#x: %s", typ, got)
	}
	if !bytes.Equal(got, data[16:16+4096]) {
		t.Fatal("read returned wrong bytes")
	}

	size = c.mustOK(wire.OpInsert, wire.AppendInsertReq(nil, wire.InsertReq{Name: name, Off: 0, Data: []byte("HDR:")}))
	if size != uint64(len(data)+4) {
		t.Fatalf("insert reported size %d", size)
	}
	size = c.mustOK(wire.OpDelete, wire.AppendDeleteReq(nil, wire.DeleteReq{Name: name, Off: 0, Len: 4}))
	if size != uint64(len(data)) {
		t.Fatalf("delete reported size %d", size)
	}

	// Out-of-range read: a clean RespErr, not a dropped connection.
	typ, msg := c.call(wire.OpRead, wire.AppendReadReq(nil, wire.ReadReq{Name: name, Off: 1 << 40, Len: 16}))
	if typ != wire.RespErr {
		t.Fatalf("out-of-range read: response type %#x", typ)
	}
	if len(msg) == 0 {
		t.Fatal("out-of-range read: empty error message")
	}
	// And the connection still works.
	c.mustOK(wire.OpPing, nil)

	// Unknown object: RespErr.
	typ, _ = c.call(wire.OpStat, wire.AppendStatReq(nil, wire.StatReq{Name: []byte("ghost")}))
	if typ != wire.RespErr {
		t.Fatalf("unknown object: response type %#x", typ)
	}
}

// TestServeStreamedRead checks a read spanning many chunks arrives as a
// correctly flagged frame stream with intact bytes.
func TestServeStreamedRead(t *testing.T) {
	db := testDB(t)
	defer db.Close()
	_, addr := startServer(t, db, Options{ChunkBytes: 4096})
	c := dialClient(t, addr)

	name := []byte("s")
	c.mustOK(wire.OpCreate, wire.AppendCreateReq(nil, wire.CreateReq{Name: name, Engine: wire.EngineESM, Param: 4}))
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	c.mustOK(wire.OpAppend, wire.AppendAppendReq(nil, wire.AppendReqMsg{Name: name, Data: data}))

	id := c.send(wire.OpRead, wire.AppendReadReq(nil, wire.ReadReq{Name: name, Off: 0, Len: uint32(len(data))}))
	var (
		got    []byte
		frames int
	)
	for {
		h, body := c.recv()
		if h.ReqID != id || h.Type != wire.RespData {
			t.Fatalf("frame %d: header %+v", frames, h)
		}
		got = append(got, body...)
		frames++
		if h.Last() {
			break
		}
	}
	if frames != len(data)/4096 {
		t.Fatalf("stream arrived in %d frames, want %d", frames, len(data)/4096)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("streamed read corrupted the bytes")
	}
}

// TestServeReadPastEndSendsNoData pins that a multi-chunk read reaching past
// the end of the object is refused before anything is streamed: the only
// frame of the response is the RespErr.
func TestServeReadPastEndSendsNoData(t *testing.T) {
	db := testDB(t)
	defer db.Close()
	_, addr := startServer(t, db, Options{})
	c := dialClient(t, addr)

	name := []byte("short")
	c.mustOK(wire.OpCreate, wire.AppendCreateReq(nil, wire.CreateReq{Name: name, Engine: wire.EngineEOS, Param: 16}))
	c.mustOK(wire.OpAppend, wire.AppendAppendReq(nil, wire.AppendReqMsg{Name: name, Data: make([]byte, 256<<10)}))

	id := c.send(wire.OpRead, wire.AppendReadReq(nil, wire.ReadReq{Name: name, Off: 0, Len: 1 << 20}))
	h, body := c.recv()
	if h.ReqID != id || h.Type != wire.RespErr || !h.Last() {
		t.Fatalf("first frame of an out-of-range 1 MB read: header %+v, want a final RespErr", h)
	}
	if len(body) == 0 {
		t.Fatal("empty error message")
	}
	c.mustOK(wire.OpPing, nil)
}

// TestServePipelining floods one socket with interleaved reads and
// appends without waiting for responses, then checks every request got
// exactly one (complete) response with its own id and correct contents.
// Appends park at durability barriers only on the file backend, but
// out-of-order completion across the worker pool is exercised here too.
func TestServePipelining(t *testing.T) {
	db := testDB(t)
	defer db.Close()
	_, addr := startServer(t, db, Options{Workers: 4})
	c := dialClient(t, addr)

	name := []byte("p")
	c.mustOK(wire.OpCreate, wire.AppendCreateReq(nil, wire.CreateReq{Name: name, Engine: wire.EngineEOS, Param: 4}))
	base := bytes.Repeat([]byte{0xee}, 8192)
	c.mustOK(wire.OpAppend, wire.AppendAppendReq(nil, wire.AppendReqMsg{Name: name, Data: base}))

	const n = 200
	want := make(map[uint32]byte, n) // id -> expected response type
	for i := 0; i < n; i++ {
		if i%4 == 0 {
			id := c.send(wire.OpAppend, wire.AppendAppendReq(nil, wire.AppendReqMsg{Name: name, Data: []byte{1, 2, 3}}))
			want[id] = wire.RespOK
		} else {
			id := c.send(wire.OpRead, wire.AppendReadReq(nil, wire.ReadReq{Name: name, Off: 0, Len: 512}))
			want[id] = wire.RespData
		}
	}
	seen := make(map[uint32]bool, n)
	ooo := false
	var prev uint32
	for len(seen) < n {
		h, body := c.recv()
		if !h.Last() {
			continue // middle of a stream; same id frames follow
		}
		typ, ok := want[h.ReqID]
		if !ok {
			t.Fatalf("response for unknown id %d", h.ReqID)
		}
		if seen[h.ReqID] {
			t.Fatalf("duplicate response for id %d", h.ReqID)
		}
		seen[h.ReqID] = true
		if h.Type != typ {
			t.Fatalf("id %d: response type %#x (%s), want %#x", h.ReqID, h.Type, body, typ)
		}
		if h.ReqID < prev {
			ooo = true
		}
		prev = h.ReqID
	}
	t.Logf("out-of-order completion observed: %v", ooo)
}

// TestServeManyConns hammers the server from concurrent connections
// mixing object creation, appends and reads; run under -race this is the
// server's goroutine-safety contract.
func TestServeManyConns(t *testing.T) {
	db := testDB(t)
	defer db.Close()
	s, addr := startServer(t, db, Options{Workers: 2})

	const conns = 8
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			c := &testClient{t: t, conn: conn, r: wire.NewReader(conn, 0)}
			name := []byte(fmt.Sprintf("o%d", g%4)) // collide on purpose
			typ, _ := c.call(wire.OpCreate, wire.AppendCreateReq(nil, wire.CreateReq{Name: name, Engine: wire.EngineEOS, Param: 4}))
			_ = typ // losing the create race is fine; the object exists
			for i := 0; i < 30; i++ {
				c.call(wire.OpAppend, wire.AppendAppendReq(nil, wire.AppendReqMsg{Name: name, Data: []byte("xyz")}))
				typ, _ := c.call(wire.OpRead, wire.AppendReadReq(nil, wire.ReadReq{Name: name, Off: 0, Len: 3}))
				if typ != wire.RespData && typ != wire.RespErr {
					t.Errorf("conn %d: read response type %#x", g, typ)
					return
				}
				c.call(wire.OpStat, wire.AppendStatReq(nil, wire.StatReq{Name: name}))
			}
		}(g)
	}
	wg.Wait()
	if s.OpCount(wire.OpAppend) != conns*30 {
		t.Fatalf("append count %d, want %d", s.OpCount(wire.OpAppend), conns*30)
	}
	if s.LatencySummary().N == 0 {
		t.Fatal("latency histogram is empty")
	}
}

// TestServeCreateRacesRead checks that a Create succeeds when a read of the
// new name on another connection opens and caches the object before the
// Create has registered its own handle.
func TestServeCreateRacesRead(t *testing.T) {
	db := testDB(t)
	t.Cleanup(func() { db.Close() }) // after the server's cleanup: its last reply is a Create
	_, addr := startServer(t, db, Options{})
	w, r := dialClient(t, addr), dialClient(t, addr)
	for i := 0; i < 100; i++ {
		name := []byte(fmt.Sprintf("race-%d", i))
		errc := make(chan error, 1)
		go func() { // read the name until it exists
			for {
				typ, body, err := r.tryCall(wire.OpRead, wire.AppendReadReq(nil, wire.ReadReq{Name: name}))
				if err != nil || typ == wire.RespData {
					errc <- err
					return
				}
				if typ != wire.RespErr {
					errc <- fmt.Errorf("read response type %#x: %s", typ, body)
					return
				}
			}
		}()
		typ, body := w.call(wire.OpCreate, wire.AppendCreateReq(nil, wire.CreateReq{Name: name, Engine: wire.EngineEOS, Param: 4}))
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if typ != wire.RespOK {
			t.Fatalf("create %s: response type %#x: %s", name, typ, body)
		}
	}
}

// TestServeMalformedFrame checks the server drops a desynchronized
// connection instead of crashing or hanging, and keeps serving others.
func TestServeMalformedFrame(t *testing.T) {
	db := testDB(t)
	defer db.Close()
	_, addr := startServer(t, db, Options{})

	bad, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Write(bytes.Repeat([]byte{0x55}, 256)); err != nil {
		t.Fatal(err)
	}
	// The server must close this connection: the next read sees EOF.
	one := make([]byte, 1)
	if _, err := bad.Read(one); err == nil {
		t.Fatal("server kept a desynchronized connection open")
	}

	// A healthy connection still works.
	c := dialClient(t, addr)
	c.mustOK(wire.OpPing, nil)
}

// TestCloseHandlesTrimsSlack drives an EOS object over the wire against a
// file-backed store, shuts down the way RunServe does — drain, CloseHandles,
// db.Close — and requires the directory to fsck clean offline. Without
// CloseHandles the object's growth-pattern over-allocation stays allocated
// on disk and fsck reports it leaked.
func TestCloseHandlesTrimsSlack(t *testing.T) {
	dir := t.TempDir()
	cfg := lobstore.DefaultConfig()
	cfg.Backend = "file"
	cfg.Dir = dir
	cfg.Concurrent = true
	cfg.BufferPages = lobstore.MinConcurrentBufferPages
	db, err := lobstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := s.Serve(ln); err != nil && !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	c := dialClient(t, ln.Addr().String())
	c.mustOK(wire.OpCreate, wire.AppendCreateReq(nil, wire.CreateReq{
		Name: []byte("slack"), Engine: wire.EngineEOS, Param: 16,
	}))
	c.mustOK(wire.OpAppend, wire.AppendAppendReq(nil, wire.AppendReqMsg{
		Name: []byte("slack"), Data: bytes.Repeat([]byte{0xA5}, 1<<20),
	}))
	c.conn.Close()

	if err := s.Close(ln); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := s.CloseHandles(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := lobstore.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fsck after graceful shutdown: %d leaked range(s), %d conflict(s)",
			len(rep.Leaked), len(rep.DoublyOwned))
	}
}

// TestSummaryReportsAllocationPressure checks the shutdown summary's
// allocation line: GC cycles, total GC pause and heap bytes per served
// request, all as deltas between the two MemStats reads.
func TestSummaryReportsAllocationPressure(t *testing.T) {
	db := testDB(t)
	defer db.Close()
	s, addr := startServer(t, db, Options{})
	c := dialClient(t, addr)
	c.mustOK(wire.OpPing, nil)
	c.mustOK(wire.OpPing, nil)
	start := runtime.MemStats{NumGC: 3, PauseTotalNs: 1_000_000, TotalAlloc: 1000}
	end := runtime.MemStats{NumGC: 10, PauseTotalNs: 3_500_000, TotalAlloc: 5000}
	var out bytes.Buffer
	printSummary(&out, "lobctl serve", s, &start, &end)
	want := "lobctl serve: GC 7 cycles, 2.5ms total pause, 2000 heap bytes allocated per request\n"
	if !strings.HasSuffix(out.String(), want) {
		t.Fatalf("summary:\n%s\nwant last line %q", out.String(), want)
	}
}
