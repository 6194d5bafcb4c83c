package main

import (
	"errors"
	"fmt"
	"net"
	"os"

	"lobstore"
	"lobstore/internal/server"
)

// storeConfig is the one server configuration every workload runs under.
// backend is "file" for everything timed and "mem" for the exact I/O counts.
func storeConfig(backend, dir string, concurrent bool) lobstore.Config {
	cfg := lobstore.DefaultConfig()
	cfg.Backend, cfg.Dir = backend, dir
	cfg.SyncPolicy = "commit"
	cfg.GroupCommit = lobstore.GroupCommit{MaxBatch: 16}
	cfg.Concurrent = concurrent
	cfg.BufferPages = 256 // 1 MB pool
	// Sizing guard: 1 GB of leaf area and 128 MB of metadata are an order of
	// magnitude above any workload's footprint (at most 64 MB preloaded plus
	// 50 MB of growth), so no run can fill them and turn requests into cheap
	// errors. The files grow lazily, so the size costs nothing.
	cfg.LeafAreaPages = 256 << 10
	cfg.MetaAreaPages = 32 << 10
	return cfg
}

// eosSpec is what the server creates by default: EOS, threshold 16.
var eosSpec = lobstore.ObjectSpec{Engine: "eos", Threshold: 16}

// openStore opens a fresh store and preloads the workload's objects, each a
// pure function of (seed, object, offset).
func openStore(cfg lobstore.Config, w workload, spec lobstore.ObjectSpec, seed int64) (*lobstore.DB, error) {
	db, err := lobstore.Open(cfg)
	if err != nil {
		return nil, err
	}
	if err := preload(db, w, spec, seed); err != nil {
		return nil, errors.Join(err, db.Close())
	}
	return db, nil
}

func preload(db *lobstore.DB, w workload, spec lobstore.ObjectSpec, seed int64) error {
	buf := make([]byte, 1<<20)
	for i := 0; i < w.objects; i++ {
		obj, err := db.Create(objName(i), spec)
		if err != nil {
			return err
		}
		for off := int64(0); off < w.objBytes; off += int64(len(buf)) {
			n := min(int64(len(buf)), w.objBytes-off)
			fill(buf[:n], preloadKey(seed, i), off)
			if err := obj.Append(buf[:n]); err != nil {
				return err
			}
		}
		// Close trims the growth slack; the server opens its own handle.
		if err := obj.Close(); err != nil {
			return err
		}
	}
	return nil
}

// stack is the system under test: a file-backed store behind a TCP server
// on a loopback listener, with the client connections dialled.
type stack struct {
	dir   string
	db    *lobstore.DB
	srv   *server.Server
	ln    net.Listener
	done  chan error
	conns []*conn
}

// startStack is the set-up a user of the system pays before the first
// request: open the store, create and preload the objects, start the server,
// connect.
func startStack(outdir string, w workload, seed int64) (_ *stack, err error) {
	dir, err := os.MkdirTemp(outdir, "store-")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir}
	defer func() {
		if err != nil {
			err = errors.Join(err, s.stop(), os.RemoveAll(dir))
		}
	}()
	if s.db, err = openStore(storeConfig("file", dir, true), w, eosSpec, seed); err != nil {
		return nil, err
	}
	if s.srv, err = server.New(s.db, server.Options{}); err != nil {
		return nil, err
	}
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(s.ln) }()
	for i := 0; i < clients; i++ {
		c, err := dial(s.ln.Addr().String())
		if err != nil {
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

// stop shuts the stack down in the server's own order: connections, server,
// cached handles (which trims growth slack so fsck sees an exact image),
// store. It is safe on a partly started stack and leaves the directory.
func (s *stack) stop() error {
	var errs []error
	for _, c := range s.conns {
		errs = append(errs, c.close())
	}
	s.conns = nil
	if s.done != nil {
		errs = append(errs, s.srv.Close(s.ln))
		if err := <-s.done; !errors.Is(err, server.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("serve: %w", err))
		}
		s.done = nil
		errs = append(errs, s.srv.CloseHandles())
	}
	if s.db != nil {
		errs = append(errs, s.db.Close())
		s.db = nil
	}
	return errors.Join(errs...)
}
