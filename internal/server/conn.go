package server

import (
	"fmt"
	"net"
	"sync"

	"lobstore"
	"lobstore/internal/engine"
	"lobstore/internal/obs"
	"lobstore/internal/wire"
)

// buf is a pooled byte buffer. Pools hold pointers so a Get/Put cycle
// never boxes a slice header into an interface (which would be one
// allocation per request — exactly what the pools exist to avoid).
type buf struct{ b []byte }

var (
	// bodyPool recycles request payload buffers (reader → worker).
	bodyPool = sync.Pool{New: func() any { return &buf{} }}
	// respPool recycles response frames (worker → writer).
	respPool = sync.Pool{New: func() any { return &response{} }}
)

// reqTask is one decoded request handed from the connection's reader to
// a worker. body is owned by the worker once sent and returns to
// bodyPool when the dispatch finishes; the decoded request's Name/Data
// fields alias it.
type reqTask struct {
	hdr  wire.Header
	body *buf
}

// response is one frame queued for the connection's writer: a pre-built
// header and its payload, as the list of slices the writev sends. Small
// payloads (OK, Stat, most errors) live in the inline array; a streamed
// read's payload is the views of its pinned bytes, lent by the volume and
// never copied before the writev. The frame that ends a streamed read
// carries its pin, which the writer releases once the writev has returned:
// writev has copied every byte into the socket by then, so no view is
// read after its pin is gone.
type response struct {
	hdr   [wire.HeaderSize]byte
	body  [][]byte
	pin   *engine.Pin
	small [64]byte
}

// releasePin gives back the pin a frame carries, if any. Nothing is left
// to report a release failure to, so it is counted as a server error.
func (c *servConn) releasePin(r *response) {
	if r.pin == nil {
		return
	}
	if err := r.pin.Release(); err != nil {
		c.s.serverErrs.Add(1)
	}
	r.pin = nil
}

func putResp(r *response) {
	clear(r.body) // hold no reference to volume storage while pooled
	r.body = r.body[:0]
	respPool.Put(r)
}

// servConn is the per-connection state: one reader (the serveConn
// goroutine), Options.Workers executors, one writer.
type servConn struct {
	s    *Server
	conn net.Conn

	workCh  chan reqTask
	writeCh chan *response
}

// serveConn runs the connection to completion. Goroutine layout:
//
//	reader (this goroutine) ── workCh ──► workers ── writeCh ──► writer
//
// The reader owns teardown: on decode error or EOF it closes workCh,
// waits for the workers to drain, closes writeCh, waits for the writer,
// and closes the socket. A writer-side error closes the socket early,
// which surfaces at the reader as a read error and triggers the same
// orderly teardown; the writer keeps draining (and discarding) until
// writeCh closes so no worker ever blocks on a dead connection.
func (s *Server) serveConn(conn net.Conn) {
	c := &servConn{
		s:       s,
		conn:    conn,
		workCh:  make(chan reqTask, 2*s.opts.Workers),
		writeCh: make(chan *response, 4*s.opts.Workers),
	}
	var workers sync.WaitGroup
	for i := 0; i < s.opts.Workers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			c.workLoop()
		}()
	}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		c.writeLoop()
	}()

	r := wire.NewReader(conn, s.opts.MaxPayload)
	for {
		h, err := r.Next()
		if err != nil {
			break // EOF between frames, peer desync, or our own Close
		}
		pb := bodyPool.Get().(*buf)
		pb.b, err = r.Payload(h, pb.b)
		if err != nil {
			bodyPool.Put(pb)
			break
		}
		c.workCh <- reqTask{hdr: h, body: pb}
	}
	close(c.workCh)
	workers.Wait()
	close(c.writeCh)
	<-writerDone
	conn.Close() //lobvet:ignore errdiscard — teardown; the peer may already be gone
}

// workLoop executes decoded requests until the reader closes workCh.
func (c *servConn) workLoop() {
	for t := range c.workCh {
		c.dispatch(t)
		t.body.b = t.body.b[:0]
		bodyPool.Put(t.body)
	}
}

// writeLoop flushes queued responses. Each wakeup gathers everything
// already queued into a single writev, so a burst of pipelined
// responses costs one syscall, and afterwards releases the pins the batch
// carries and recycles its frames — on a failed socket too, where the
// frames are discarded unwritten.
func (c *servConn) writeLoop() {
	var (
		vecs   = make(net.Buffers, 0, 32)
		batch  = make([]*response, 0, 16)
		failed bool
		// wv is the net.Buffers handed to WriteTo. WriteTo consumes its
		// receiver (and subslices entries on partial writes), so it gets a
		// copy of vecs' header; heap-allocating the copy once per
		// connection keeps the per-batch write allocation-free.
		wv = new(net.Buffers)
	)
	for r := range c.writeCh {
		batch = append(batch[:0], r)
	drain:
		for len(batch) < cap(batch) {
			select {
			case more, ok := <-c.writeCh:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		if !failed {
			vecs = vecs[:0]
			for _, r := range batch {
				vecs = append(append(vecs, r.hdr[:]), r.body...)
			}
			*wv = vecs
			if _, err := wv.WriteTo(c.conn); err != nil {
				// Kill the socket so the reader stops feeding us; keep
				// draining so no worker blocks on writeCh.
				failed = true
				c.conn.Close() //lobvet:ignore errdiscard — killing a socket that already failed to write
			}
		}
		for _, r := range batch {
			c.releasePin(r)
			putResp(r)
		}
	}
}

// dispatch executes one request and enqueues its response frame(s).
func (c *servConn) dispatch(t reqTask) {
	s := c.s
	start := obs.WallNow()
	if int(t.hdr.Type) < len(s.ops) {
		s.ops[t.hdr.Type].Add(1)
	}
	switch t.hdr.Type {
	case wire.OpPing:
		c.sendOK(t.hdr.ReqID, 0)
	case wire.OpCreate:
		c.doCreate(t)
	case wire.OpRead:
		c.doRead(t)
	case wire.OpAppend:
		c.doAppend(t)
	case wire.OpInsert:
		c.doInsert(t)
	case wire.OpDelete:
		c.doDelete(t)
	case wire.OpStat:
		c.doStat(t)
	default:
		c.sendErrf(t.hdr.ReqID, nil, "unknown opcode %#x", t.hdr.Type)
	}
	s.lat.Observe(obs.WallNow() - start)
}

func (c *servConn) doCreate(t reqTask) {
	req, err := wire.ParseCreateReq(t.body.b)
	if err != nil {
		c.sendErr(t.hdr.ReqID, err)
		return
	}
	eng, err := engineName(req.Engine)
	if err != nil {
		c.sendErr(t.hdr.ReqID, err)
		return
	}
	spec := lobstore.ObjectSpec{Engine: eng}
	switch req.Engine {
	case wire.EngineESM:
		spec.LeafPages = int(req.Param)
	case wire.EngineStarburst:
		spec.MaxSegmentPages = int(req.Param)
	case wire.EngineEOS:
		spec.Threshold = int(req.Param)
	}
	name := string(req.Name)
	obj, err := c.s.db.Create(name, spec)
	if err != nil {
		c.sendErr(t.hdr.ReqID, err)
		return
	}
	c.s.register(name, obj.(*engine.Handle))
	c.sendOK(t.hdr.ReqID, 0)
}

// doRead streams the requested range as chunked RespData frames, all from
// one pin: the range is resolved and pinned once, under the object's lock,
// and every chunk is then sent as views of the pinned bytes, with no engine
// lock held and no copy before the writev. The whole response is one
// committed version, however many writers commit meanwhile, and an
// out-of-range read is answered by RespErr alone, before any frame goes
// out. The pin travels with the frame that ends the stream — the last
// RespData, or a RespErr if a view fails — and the writer releases it.
func (c *servConn) doRead(t reqTask) {
	req, err := wire.ParseReadReq(t.body.b)
	if err != nil {
		c.sendErr(t.hdr.ReqID, err)
		return
	}
	obj, err := c.s.handle(req.Name)
	if err != nil {
		c.sendErr(t.hdr.ReqID, err)
		return
	}
	if req.Len == 0 {
		c.sendData(t.hdr.ReqID, respPool.Get().(*response), 0, true)
		return
	}
	off, remaining := int64(req.Off), int(req.Len)
	pin, err := obj.Pin(off, int64(remaining))
	if err != nil {
		c.sendErr(t.hdr.ReqID, err)
		return
	}
	for remaining > 0 {
		n := min(remaining, c.s.opts.ChunkBytes)
		r := respPool.Get().(*response)
		if r.body, err = pin.Views(off, int64(n), r.body[:0]); err != nil {
			putResp(r)
			c.sendErrPin(t.hdr.ReqID, err, pin)
			return
		}
		off += int64(n)
		if remaining -= n; remaining == 0 {
			r.pin = pin
		}
		c.sendData(t.hdr.ReqID, r, n, remaining == 0)
	}
}

func (c *servConn) doAppend(t reqTask) {
	req, err := wire.ParseAppendReq(t.body.b)
	if err != nil {
		c.sendErr(t.hdr.ReqID, err)
		return
	}
	obj, err := c.s.handle(req.Name)
	if err != nil {
		c.sendErr(t.hdr.ReqID, err)
		return
	}
	if err := obj.Append(req.Data); err != nil {
		c.sendErr(t.hdr.ReqID, err)
		return
	}
	c.sendOK(t.hdr.ReqID, uint64(obj.Size()))
}

func (c *servConn) doInsert(t reqTask) {
	req, err := wire.ParseInsertReq(t.body.b)
	if err != nil {
		c.sendErr(t.hdr.ReqID, err)
		return
	}
	obj, err := c.s.handle(req.Name)
	if err != nil {
		c.sendErr(t.hdr.ReqID, err)
		return
	}
	if err := obj.Insert(int64(req.Off), req.Data); err != nil {
		c.sendErr(t.hdr.ReqID, err)
		return
	}
	c.sendOK(t.hdr.ReqID, uint64(obj.Size()))
}

func (c *servConn) doDelete(t reqTask) {
	req, err := wire.ParseDeleteReq(t.body.b)
	if err != nil {
		c.sendErr(t.hdr.ReqID, err)
		return
	}
	obj, err := c.s.handle(req.Name)
	if err != nil {
		c.sendErr(t.hdr.ReqID, err)
		return
	}
	if err := obj.Delete(int64(req.Off), int64(req.Len)); err != nil {
		c.sendErr(t.hdr.ReqID, err)
		return
	}
	c.sendOK(t.hdr.ReqID, uint64(obj.Size()))
}

func (c *servConn) doStat(t reqTask) {
	req, err := wire.ParseStatReq(t.body.b)
	if err != nil {
		c.sendErr(t.hdr.ReqID, err)
		return
	}
	obj, err := c.s.handle(req.Name)
	if err != nil {
		c.sendErr(t.hdr.ReqID, err)
		return
	}
	r := respPool.Get().(*response)
	data := wire.AppendStatResp(r.small[:0], wire.StatResp{Size: uint64(obj.Size())})
	r.body = append(r.body[:0], data)
	wire.PutHeader(r.hdr[:], wire.Header{Type: wire.RespStat, Flags: wire.FlagLast, ReqID: t.hdr.ReqID, Len: uint32(len(data))})
	c.writeCh <- r
}

func (c *servConn) sendOK(reqID uint32, size uint64) {
	r := respPool.Get().(*response)
	data := wire.AppendOKResp(r.small[:0], wire.OKResp{Size: size})
	r.body = append(r.body[:0], data)
	wire.PutHeader(r.hdr[:], wire.Header{Type: wire.RespOK, Flags: wire.FlagLast, ReqID: reqID, Len: uint32(len(data))})
	c.writeCh <- r
}

// sendData enqueues r, whose body holds n payload bytes, as one RespData
// chunk.
func (c *servConn) sendData(reqID uint32, r *response, n int, last bool) {
	var flags uint16
	if last {
		flags = wire.FlagLast
	}
	wire.PutHeader(r.hdr[:], wire.Header{Type: wire.RespData, Flags: flags, ReqID: reqID, Len: uint32(n)})
	c.writeCh <- r
}

func (c *servConn) sendErr(reqID uint32, err error) {
	c.sendErrPin(reqID, err, nil)
}

// sendErrPin answers with RespErr; pin, if not nil, is the failed streamed
// read's pin, which rides on the frame to the writer.
func (c *servConn) sendErrPin(reqID uint32, err error, pin *engine.Pin) {
	if !isClientError(err) {
		c.s.serverErrs.Add(1)
	}
	c.sendErrf(reqID, pin, "%v", err)
}

func (c *servConn) sendErrf(reqID uint32, pin *engine.Pin, format string, args ...any) {
	r := respPool.Get().(*response)
	data := fmt.Appendf(r.small[:0], format, args...)
	r.body = append(r.body[:0], data)
	r.pin = pin
	wire.PutHeader(r.hdr[:], wire.Header{Type: wire.RespErr, Flags: wire.FlagLast, ReqID: reqID, Len: uint32(len(data))})
	c.writeCh <- r
}
