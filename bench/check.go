package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"lobstore"
	"lobstore/internal/filevol"
)

// Power-cut pass shape: enough acknowledged mutations on two objects that a
// cut armed at a seed-chosen barrier in [cutMin, cutMin+cutSpan) always fires.
const (
	cutObjects = 2
	cutMaxOps  = 400
	cutMin     = 20
	cutSpan    = 100
)

// durability is what the untimed check after a run found.
type durability struct {
	// pages is what the store occupies after a clean shutdown, growth slack
	// trimmed: the numerator of space_amp.
	pages int64
	// lost counts acknowledged mutations missing after the power cut.
	lost int
}

// verifyDurable shuts the stack down the way lobserve does, requires a clean
// fsck, reopens the directory and compares every object with the model. Then
// it cuts the power: with crash injection on, it runs acknowledged mutations
// through engine handles until a barrier chosen by the seed drops everything
// unsynced, reopens, and counts acknowledged mutations that are missing.
// Killing the process would not do: the OS cache would still hold the
// unsynced writes.
func (s *stack) verifyDurable(w workload, seed int64, m *model) (d durability, err error) {
	if err := s.stop(); err != nil {
		return d, fmt.Errorf("shutdown: %w", err)
	}
	rep, err := lobstore.Fsck(s.dir)
	if err != nil {
		return d, fmt.Errorf("fsck: %w", err)
	}
	if !rep.Clean() {
		return d, fmt.Errorf("fsck: %d leaked ranges, %d doubly owned pages", len(rep.Leaked), len(rep.DoublyOwned))
	}

	cfg := storeConfig("file", s.dir, true)
	cfg.CrashInjection = true
	db, err := lobstore.Open(cfg)
	if err != nil {
		return d, fmt.Errorf("reopen: %w", err)
	}
	data, meta := db.SpaceInUse()
	d.pages = data + meta
	acked, inflight, err := cutPower(db, w, seed, m)
	// After the cut the volume is dead and Close can only report the cut
	// again; before it, cutPower's own error is the one to return.
	db.Close() //lobvet:ignore errdiscard — called only to release the files, see above
	if err != nil {
		return d, err
	}

	if db, err = lobstore.Open(storeConfig("file", s.dir, true)); err != nil {
		return d, fmt.Errorf("reopen after power cut: %w", err)
	}
	defer func() { err = errors.Join(err, db.Close()) }()
	h, err := openHandles(db, w)
	if err != nil {
		return d, err
	}
	for obj, n := range acked {
		if compare(h, m, obj) == nil {
			continue
		}
		// The mutation the cut interrupted was never acknowledged; it may
		// or may not have committed.
		if inflight.obj == obj {
			with := m.clone(obj)
			with.apply(*inflight)
			if compare(h, with, obj) == nil {
				continue
			}
		}
		d.lost += n
	}
	if d.lost > 0 {
		return d, fmt.Errorf("power cut lost %d acknowledged mutations", d.lost)
	}
	return d, nil
}

// cutPower checks the reopened store against the model, arms the cut, and
// mutates cutObjects objects until it fires. It returns the acknowledged
// mutations per object, applied to the model, and the one the cut interrupted.
func cutPower(db *lobstore.DB, w workload, seed int64, m *model) (acked map[int]int, inflight *op, err error) {
	h, err := openHandles(db, w)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < w.objects; i++ {
		if err := compare(h, m, i); err != nil {
			return nil, nil, fmt.Errorf("after restart: %w", err)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	objs := rng.Perm(w.objects)[:cutObjects]
	if err := db.InjectPowerCut(int64(cutMin + rng.Intn(cutSpan))); err != nil {
		return nil, nil, err
	}
	acked = map[int]int{}
	payload := make([]byte, 2*editMeanOp)
	for i := 0; i < cutMaxOps; i++ {
		obj := objs[rng.Intn(cutObjects)]
		size := m.size(obj)
		n := int64(editMeanOp/2 + rng.Intn(editMeanOp+1))
		o := op{obj: obj, key: writeKey(seed, clients, uint64(i))}
		switch p := rng.Intn(3); {
		case p == 0:
			o.kind, o.n = opAppend, openOpSize
		case p == 1 || size < n:
			o.kind, o.off, o.n = opInsert, rng.Int63n(size+1), int(n)
		default:
			o.kind, o.off, o.n = opDelete, rng.Int63n(size-n+1), int(n)
		}
		fill(payload[:o.n], o.key, 0)
		r, _ := h.exec(o, payload[:o.n])
		switch {
		case r.err == nil:
			m.apply(o)
			acked[obj]++
		case errors.Is(r.err, filevol.ErrPowerCut):
			return acked, &o, nil
		default:
			return nil, nil, fmt.Errorf("power-cut pass: %s: %w", o.kind, r.err)
		}
	}
	return nil, nil, fmt.Errorf("power-cut pass: no cut within %d mutations", cutMaxOps)
}

// compare reads the whole object through h and checks size and content
// against the model.
func compare(h *handles, m *model, obj int) error {
	want := make([]byte, m.size(obj))
	m.expect(want, obj, 0)
	if got := h.objs[obj].Size(); got != int64(len(want)) {
		return fmt.Errorf("%s: size %d, want %d", objName(obj), got, len(want))
	}
	got := make([]byte, len(want))
	if err := h.objs[obj].Read(0, got); err != nil {
		return fmt.Errorf("%s: %w", objName(obj), err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: content differs from the model", objName(obj))
	}
	return nil
}
