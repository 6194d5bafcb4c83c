package server

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"lobstore"
	"lobstore/internal/filevol"
	"lobstore/internal/wire"
)

// pipeListener hands out in-memory connections (net.Pipe). A write on one
// returns only once the peer has read every byte, so a test decides how
// far a streamed response, and the pin its last frame carries, gets.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// pipeServer serves db over a pipeListener. stop closes the server and
// returns once every connection has drained — its writer included, so
// every pin a queued frame carried has been released.
type pipeServer struct {
	s    *Server
	ln   *pipeListener
	done chan struct{}
}

func servePipes(t *testing.T, db *lobstore.DB, opts Options) *pipeServer {
	t.Helper()
	s, err := New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	ps := &pipeServer{s: s, ln: newPipeListener(), done: make(chan struct{})}
	go func() {
		defer close(ps.done)
		if err := s.Serve(ps.ln); err != nil && !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(ps.stop)
	return ps
}

func (ps *pipeServer) dial(t *testing.T) *testClient {
	client, server := net.Pipe()
	ps.ln.conns <- server
	t.Cleanup(func() { client.Close() })
	return &testClient{t: t, conn: client, r: wire.NewReader(client, 0)}
}

func (ps *pipeServer) stop() {
	ps.s.Close(ps.ln)
	<-ps.done
}

// pins reports the engine's pins not yet released.
func (ps *pipeServer) pins(t *testing.T, name string) int {
	t.Helper()
	ps.s.connmu.RLock()
	h := ps.s.handles[name]
	ps.s.connmu.RUnlock()
	if h == nil {
		t.Fatalf("no handle cached for %q", name)
	}
	return h.Engine().Stats().ActivePins
}

// putObject creates an EOS object over c and appends data to it.
func putObject(c *testClient, name string, data []byte) {
	c.mustOK(wire.OpCreate, wire.AppendCreateReq(nil, wire.CreateReq{Name: []byte(name), Engine: wire.EngineEOS, Param: 16}))
	for len(data) > 0 {
		n := min(len(data), 256<<10)
		c.mustOK(wire.OpAppend, wire.AppendAppendReq(nil, wire.AppendReqMsg{Name: []byte(name), Data: data[:n]}))
		data = data[n:]
	}
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 251)
	}
	return b
}

// A client reads half of a 1 MB streamed response and hangs up. The
// writer's failed writev, and the frames it discards after it, must still
// release the read's pin: once the server drains, nothing is pinned and
// the DB closes cleanly.
func TestPinReleasedWhenClientLeavesMidStream(t *testing.T) {
	db := testDB(t)
	ps := servePipes(t, db, Options{ChunkBytes: 16 << 10})
	c := ps.dial(t)
	putObject(c, "obj", pattern(1<<20))

	c.send(wire.OpRead, wire.AppendReadReq(nil, wire.ReadReq{Name: []byte("obj"), Len: 1 << 20}))
	for got := 0; got < 512<<10; {
		h, body := c.recv()
		if h.Type != wire.RespData || h.Last() {
			t.Fatalf("frame type %#x last=%v after %d bytes, want a data frame mid-stream", h.Type, h.Last(), got)
		}
		got += len(body)
	}
	c.conn.Close()
	ps.stop()
	if n := ps.pins(t, "obj"); n != 0 {
		t.Fatalf("%d pin(s) still held after the server drained", n)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("db.Close: %v", err)
	}
}

// A power cut lands while a streamed read is in flight, so the views of
// its later chunks fail. The stream ends with a RespErr frame, which
// carries the pin to the writer, and the writer releases it.
func TestPinRidesOnErrFrame(t *testing.T) {
	cfg := lobstore.DefaultConfig()
	cfg.Backend, cfg.Dir = "file", t.TempDir()
	cfg.Concurrent = true
	cfg.CrashInjection = true
	cfg.BufferPages = lobstore.MinConcurrentBufferPages
	db, err := lobstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := servePipes(t, db, Options{ChunkBytes: 4 << 10})
	c, other := ps.dial(t), ps.dial(t)
	data := pattern(1 << 20)
	putObject(c, "obj", data)
	putObject(other, "other", nil)

	c.send(wire.OpRead, wire.AppendReadReq(nil, wire.ReadReq{Name: []byte("obj"), Len: 1 << 20}))
	h, body := c.recv()
	if h.Type != wire.RespData || h.Last() {
		t.Fatalf("first frame type %#x last=%v, want a data frame mid-stream", h.Type, h.Last())
	}
	got := append([]byte(nil), body...)

	// The next barrier cuts power: the append on the other connection
	// fails, and so does every view taken after it.
	if err := db.InjectPowerCut(1); err != nil {
		t.Fatal(err)
	}
	if typ, msg := other.call(wire.OpAppend, wire.AppendAppendReq(nil, wire.AppendReqMsg{Name: []byte("other"), Data: []byte("x")})); typ != wire.RespErr {
		t.Fatalf("append across the power cut answered %#x %q, want RespErr", typ, msg)
	}
	for !h.Last() {
		h, body = c.recv()
		if h.Type == wire.RespData {
			got = append(got, body...)
		}
	}
	if h.Type != wire.RespErr {
		t.Fatalf("stream ended with frame type %#x, want RespErr", h.Type)
	}
	if len(got) >= len(data) || !bytes.Equal(got, data[:len(got)]) {
		t.Fatalf("stream sent %d bytes before its RespErr, want a correct proper prefix of %d", len(got), len(data))
	}
	ps.stop()
	if n := ps.pins(t, "obj"); n != 0 {
		t.Fatalf("%d pin(s) still held after the server drained", n)
	}
	if err := db.Close(); !errors.Is(err, filevol.ErrPowerCut) {
		t.Fatalf("db.Close after the power cut: %v, want ErrPowerCut", err)
	}
}

// The engine must not close — after which the store closes its volume —
// while a queued response still holds its read's pin: the views the
// writer has yet to send lend the volume's bytes. Once the peer reads
// the rest of the stream, the writer releases the pin and Close returns.
func TestCloseWaitsForQueuedResponse(t *testing.T) {
	db := testDB(t)
	ps := servePipes(t, db, Options{ChunkBytes: 16 << 10})
	c := ps.dial(t)
	data := pattern(256 << 10)
	putObject(c, "obj", data)

	c.send(wire.OpRead, wire.AppendReadReq(nil, wire.ReadReq{Name: []byte("obj"), Len: uint32(len(data))}))
	h, body := c.recv()
	got := append([]byte(nil), body...)
	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()
	for !h.Last() {
		select {
		case err := <-closed:
			t.Fatalf("db.Close returned (%v) while a queued response held its pin", err)
		case <-time.After(time.Millisecond):
		}
		h, body = c.recv()
		got = append(got, body...)
	}
	if h.Type != wire.RespData || !bytes.Equal(got, data) {
		t.Fatalf("stream ended with frame type %#x after %d bytes, want all %d bytes intact", h.Type, len(got), len(data))
	}
	if err := <-closed; err != nil {
		t.Fatalf("db.Close after the stream drained: %v", err)
	}
}
