package main

import (
	"fmt"
	"net"

	"lobstore/internal/wire"
)

// reply is what a request came back with. data is the read payload and is
// only valid until the connection's next request (closed loop) or until the
// slot is released (pipelined).
type reply struct {
	size   uint64 // object size reported by a mutation
	data   []byte
	chunks int // RespData frames received
	err    error
}

// conn is a wire-protocol connection that keeps the bytes it reads, so they
// can be verified. It is used either one request at a time through do, or
// pipelined through send and recv from one sending and one receiving
// goroutine.
type conn struct {
	c     net.Conn
	r     *wire.Reader
	enc   []byte
	frame []byte
	// slots hold the replies being assembled; a request id is seq<<3|slot,
	// so recv finds the slot without a lookup. do uses slot 0.
	slots [openPipeline]reply
	seq   uint32
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: wire.NewReader(c, wire.MaxPayload)}, nil
}

func (c *conn) close() error { return c.c.Close() }

var opcodes = [numKinds]byte{wire.OpRead, wire.OpAppend, wire.OpInsert, wire.OpDelete}

// send encodes o and writes it with a request id that names slot. payload is
// the data of an append or insert.
func (c *conn) send(o op, payload []byte, slot int) error {
	name := objNames[o.obj]
	b := append(c.enc[:0], make([]byte, wire.HeaderSize)...)
	switch o.kind {
	case opRead:
		b = wire.AppendReadReq(b, wire.ReadReq{Name: name, Off: uint64(o.off), Len: uint32(o.n)})
	case opAppend:
		b = wire.AppendAppendReq(b, wire.AppendReqMsg{Name: name, Data: payload})
	case opInsert:
		b = wire.AppendInsertReq(b, wire.InsertReq{Name: name, Off: uint64(o.off), Data: payload})
	case opDelete:
		b = wire.AppendDeleteReq(b, wire.DeleteReq{Name: name, Off: uint64(o.off), Len: uint64(o.n)})
	}
	c.seq++
	return c.write(b, opcodes[o.kind], slot)
}

func (c *conn) write(b []byte, opcode byte, slot int) error {
	wire.PutHeader(b, wire.Header{Type: opcode, Flags: wire.FlagLast, ReqID: c.seq<<3 | uint32(slot), Len: uint32(len(b) - wire.HeaderSize)})
	c.enc = b
	_, err := c.c.Write(b)
	return err
}

// reset clears a slot for its next request. Only the receiving side calls
// it, so a pipelined sender never touches a reply.
func (c *conn) reset(slot int) {
	s := &c.slots[slot]
	*s = reply{data: s.data[:0]}
}

// recv reads frames until some request's last one arrives and returns that
// request's slot. Chunks of concurrent reads may interleave; each is
// appended to its own slot. A transport or protocol failure is returned as
// an error; a server-reported failure is the reply's err.
func (c *conn) recv() (int, error) {
	for {
		h, err := c.r.Next()
		if err != nil {
			return 0, err
		}
		if c.frame, err = c.r.Payload(h, c.frame); err != nil {
			return 0, err
		}
		slot := int(h.ReqID & (openPipeline - 1))
		s := &c.slots[slot]
		switch h.Type {
		case wire.RespData:
			s.data = append(s.data, c.frame...)
			s.chunks++
		case wire.RespOK:
			ok, err := wire.ParseOKResp(c.frame)
			if err != nil {
				return 0, err
			}
			s.size = ok.Size
		case wire.RespErr:
			s.err = fmt.Errorf("server: %s", c.frame)
		default:
			return 0, fmt.Errorf("unexpected response type %#x", h.Type)
		}
		if h.Last() {
			return slot, nil
		}
	}
}

// do runs one request to completion.
func (c *conn) do(o op, payload []byte) (*reply, error) {
	c.reset(0)
	if err := c.send(o, payload, 0); err != nil {
		return nil, err
	}
	if _, err := c.recv(); err != nil {
		return nil, err
	}
	return &c.slots[0], nil
}

// ping round-trips an empty frame: framing and the connection pipeline, no
// store work.
func (c *conn) ping() error {
	c.reset(0)
	c.seq++
	if err := c.write(append(c.enc[:0], make([]byte, wire.HeaderSize)...), wire.OpPing, 0); err != nil {
		return err
	}
	if _, err := c.recv(); err != nil {
		return err
	}
	return c.slots[0].err
}
