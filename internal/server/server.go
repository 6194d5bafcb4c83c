// Package server is the TCP front-end that turns the store into a
// network service: it speaks the internal/wire protocol over a
// lobstore.DB opened with Config.Concurrent, feeding every connection's
// requests into the shared engine.
//
// The hot path is engineered for throughput:
//
//   - Pipelining. A connection's requests are decoded by one reader
//     goroutine and executed by a small pool of per-connection workers;
//     responses are matched to requests by id, so they may complete out
//     of order. A committer parked at a group-commit barrier therefore
//     never head-of-line-blocks a read that arrived behind it on the
//     same socket — the read overtakes it through another worker while
//     the barrier waits for company.
//
//   - Zero-copy streaming reads. A large read is answered as a stream
//     of chunked RespData frames, all from one pin of the range, so a
//     response is one committed version. Each frame's payload is the
//     volume's own bytes — read-only views lent under the pin — and the
//     writev copies them into the socket once; the writer releases the
//     pin after the writev of the stream's last frame. Frames come from
//     a sync.Pool, responses are gathered by the connection's writer
//     goroutine into one writev (net.Buffers) per wakeup, and the
//     engine's pins are pooled — steady state, a served read performs no
//     per-request heap allocation in this package. A peer that stops
//     reading therefore holds pinned pages, whose reuse waits, rather
//     than buffers.
//
//   - Write batching. Mutations run on worker goroutines, so commits
//     from many connections overlap inside the engine and pile into the
//     file volume's group-commit batches; the server adds no
//     serialization of its own beyond the engine's per-object FIFO.
//
// Lock order: the server's connection-layer lock (connmu) is above
// every engine lock — it is never held across an engine call.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"lobstore"
	"lobstore/internal/core"
	"lobstore/internal/engine"
	"lobstore/internal/obs"
	"lobstore/internal/wire"
)

// ErrServerClosed is returned by Serve after Close, mirroring
// net/http.ErrServerClosed.
var ErrServerClosed = errors.New("server: closed")

// Options tunes a Server. The zero value is ready for production use.
type Options struct {
	// Workers is the number of request-executing goroutines per
	// connection (default 4). More workers deepen the effective pipeline
	// per socket.
	Workers int
	// ChunkBytes is the streaming-read frame payload size (default 64
	// KiB). Reads larger than this are answered as several RespData
	// frames, all sent from views of one pin of the range taken under the
	// object lock once: the lock is not held while chunks stream, so
	// writers interleave freely with long scans, and every frame of one
	// response comes from the same committed version.
	ChunkBytes int
	// MaxPayload caps accepted request frames (default wire.MaxPayload).
	MaxPayload int
}

// Server serves one concurrent DB over any number of TCP connections.
type Server struct {
	db   *lobstore.DB
	opts Options

	// connmu guards the handle cache and the live-connection set. It
	// ranks above every engine lock and is never held across an engine
	// or I/O call.
	connmu  sync.RWMutex
	handles map[string]*engine.Handle
	conns   map[net.Conn]struct{}
	closed  bool

	// lat is the wall-clock service-time histogram: decode-complete to
	// last-response-enqueued, per request.
	lat *obs.SyncHDR
	// ops counts served requests by opcode (index = wire op byte).
	ops [8]atomic.Int64
	// serverErrs counts error responses that were not the client's fault.
	serverErrs atomic.Int64
}

// New wraps db, which must have been opened with Config.Concurrent so
// handles are safe for the server's worker goroutines.
func New(db *lobstore.DB, opts Options) (*Server, error) {
	if !db.Config().Concurrent {
		return nil, fmt.Errorf("server: %w: DB must be opened with Config.Concurrent", lobstore.ErrConfig)
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.ChunkBytes <= 0 {
		opts.ChunkBytes = 64 << 10
	}
	if opts.MaxPayload <= 0 {
		opts.MaxPayload = wire.MaxPayload
	}
	return &Server{
		db:      db,
		opts:    opts,
		handles: make(map[string]*engine.Handle),
		conns:   make(map[net.Conn]struct{}),
		lat:     obs.NewSyncHDR(),
	}, nil
}

// Serve accepts connections on ln until Close. It blocks; each accepted
// connection is handled by its own goroutine set.
func (s *Server) Serve(ln net.Listener) error {
	defer ln.Close() //lobvet:ignore errdiscard — usually already closed by Close
	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			wg.Wait()
			s.connmu.RLock()
			closed := s.closed
			s.connmu.RUnlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.connmu.Lock()
		if s.closed {
			s.connmu.Unlock()
			conn.Close() //lobvet:ignore errdiscard — refusing a connection that raced shutdown
			wg.Wait()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.connmu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveConn(conn)
			s.connmu.Lock()
			delete(s.conns, conn)
			s.connmu.Unlock()
		}()
	}
}

// Close stops accepting and tears down live connections. The DB itself
// is the caller's to close afterwards.
func (s *Server) Close(ln net.Listener) error {
	s.connmu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close() //lobvet:ignore errdiscard — tearing down live sockets on shutdown
	}
	s.connmu.Unlock()
	if ln != nil {
		return ln.Close()
	}
	return nil
}

// CloseHandles closes every cached object handle. Starburst and EOS trim
// their growth-pattern over-allocation on Close, so running this after
// connections have drained and before DB.Close leaves an exact on-disk
// image — offline fsck reports no slack pages as leaked. The handles are
// detached under connmu but closed outside it: Close is an engine
// operation, and connmu is never held across one.
func (s *Server) CloseHandles() error {
	s.connmu.Lock()
	handles := s.handles
	s.handles = make(map[string]*engine.Handle)
	s.connmu.Unlock()
	var err error
	for name, obj := range handles {
		if cerr := obj.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing %q: %w", name, cerr)
		}
	}
	return err
}

// LatencySummary returns wall-clock service-time percentiles across all
// requests served so far.
func (s *Server) LatencySummary() obs.LatencySummary {
	return s.lat.Snapshot().Summary()
}

// OpCount returns how many requests of the given opcode were served.
func (s *Server) OpCount(op byte) int64 {
	if int(op) >= len(s.ops) {
		return 0
	}
	return s.ops[op].Load()
}

// ServerErrs returns how many error responses were not the client's
// fault (anything other than an out-of-range request).
func (s *Server) ServerErrs() int64 { return s.serverErrs.Load() }

// handle returns the server-wide object handle for name, opening it on
// first use. One handle per name keeps each in-memory manager instance
// unique, so its state can never diverge across connections; the engine
// serializes operations on it by root.
func (s *Server) handle(name []byte) (*engine.Handle, error) {
	s.connmu.RLock()
	obj := s.handles[string(name)] // no copy: string(bytes) used only as map key
	s.connmu.RUnlock()
	if obj != nil {
		return obj, nil
	}
	// Slow path: open outside connmu (it is an engine operation), then
	// settle the race under the write lock — first opener wins so every
	// connection shares one instance.
	o, err := s.db.OpenObject(string(name))
	if err != nil {
		return nil, err
	}
	opened := o.(*engine.Handle) // New requires Concurrent, so every object is a handle
	s.connmu.Lock()
	if cur := s.handles[string(name)]; cur != nil {
		opened = cur
	} else {
		s.handles[string(name)] = opened
	}
	s.connmu.Unlock()
	return opened, nil
}

// register caches a freshly created handle. A request on another
// connection may have opened and cached the new object between its
// catalog insert and here; that handle is the same object, so it stays.
func (s *Server) register(name string, obj *engine.Handle) {
	s.connmu.Lock()
	defer s.connmu.Unlock()
	if _, ok := s.handles[name]; !ok {
		s.handles[name] = obj
	}
}

// engineName maps a wire engine code to the facade's spec string.
func engineName(code byte) (string, error) {
	switch code {
	case wire.EngineESM:
		return "esm", nil
	case wire.EngineStarburst:
		return "starburst", nil
	case wire.EngineEOS:
		return "eos", nil
	}
	return "", fmt.Errorf("server: unknown engine code %d", code)
}

// isClientError reports whether err is the client's fault (bad range,
// unknown object) rather than a store failure; both map to RespErr, the
// distinction only matters for logging.
func isClientError(err error) bool {
	return errors.Is(err, core.ErrOutOfRange) || errors.Is(err, lobstore.ErrNotExist)
}
