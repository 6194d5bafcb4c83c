package lobstore_test

import (
	"math/rand"
	"testing"

	"lobstore"
)

// editOp is one step of the replayed stream; n is the read, insert or
// delete length.
type editOp struct {
	kind   byte // 'r', 'i' or 'd'
	obj    int
	off, n int64
}

// editStream generates the paper's §4.4 mix (40 % read / 30 % insert / 30 %
// delete, 10 KB ± 50 %, uniform offsets) over nobj objects of size bytes,
// tracking sizes so every op is in range on any correct store.
func editStream(seed int64, nobj int, size int64, ops int) []editOp {
	rng := rand.New(rand.NewSource(seed))
	sizes := make([]int64, nobj)
	for i := range sizes {
		sizes[i] = size
	}
	out := make([]editOp, 0, ops)
	for len(out) < ops {
		o := editOp{obj: rng.Intn(nobj), n: 5000 + rng.Int63n(10001)}
		sz := &sizes[o.obj]
		switch r := rng.Intn(10); {
		case r < 4:
			o.kind, o.off = 'r', rng.Int63n(*sz-o.n+1)
		case r < 7:
			o.kind, o.off = 'i', rng.Int63n(*sz+1)
			*sz += o.n
		default:
			o.kind, o.off = 'd', rng.Int63n(*sz-o.n+1)
			*sz -= o.n
		}
		out = append(out, o)
	}
	return out
}

// TestServingStackWritesTheSimulatorsPages answers how much of lobmark's
// edit-mix write_amp is the paper's algorithm and how much is the serving
// stack's: none of it is the stack's. One seeded edit stream over four 4 MB
// EOS T=16 objects is replayed on the paper configuration (memory backend,
// single-threaded) and on the configuration `lobctl serve` runs (file backend,
// commit sync, group commit 16, concurrency engine, 256-frame pool), and in
// every window of the stream the two write exactly the same number of pages
// in the same number of calls. The preload differs by exactly one one-page
// write: the file backend's format of a fresh store. Both configurations
// write each new object's root at its creation. Reads are not compared:
// they depend on the pool size.
func TestServingStackWritesTheSimulatorsPages(t *testing.T) {
	const (
		nobj    = 4
		objSize = 4 << 20
		ops     = 3000
		window  = 500
	)
	stream := editStream(1, nobj, objSize, ops)

	geometry := func() lobstore.Config {
		cfg := lobstore.DefaultConfig()
		cfg.LeafAreaPages = 1 << 15
		cfg.MetaAreaPages = 1 << 13
		return cfg
	}
	paper := geometry()
	serve := geometry()
	serve.Backend, serve.Dir = "file", t.TempDir()
	serve.SyncPolicy = "commit"
	serve.GroupCommit = lobstore.GroupCommit{MaxBatch: 16}
	serve.Concurrent = true
	serve.BufferPages = 256

	// replay returns cumulative Stats after the preload and after every
	// window of the stream.
	replay := func(cfg lobstore.Config) []lobstore.Stats {
		db, err := lobstore.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}()
		objs := make([]lobstore.Object, nobj)
		chunk := make([]byte, 1<<20)
		for i := range objs {
			if objs[i], err = db.Create(string(rune('a'+i)), lobstore.ObjectSpec{Engine: "eos", Threshold: 16}); err != nil {
				t.Fatal(err)
			}
			for n := 0; n < objSize; n += len(chunk) {
				if err := objs[i].Append(chunk); err != nil {
					t.Fatal(err)
				}
			}
		}
		marks := []lobstore.Stats{db.Stats()}
		buf := make([]byte, 15000)
		for k, o := range stream {
			switch o.kind {
			case 'r':
				err = objs[o.obj].Read(o.off, buf[:o.n])
			case 'i':
				err = objs[o.obj].Insert(o.off, buf[:o.n])
			case 'd':
				err = objs[o.obj].Delete(o.off, o.n)
			}
			if err != nil {
				t.Fatalf("%s backend, op %d (%c obj %d off %d len %d): %v", cfg.Backend, k, o.kind, o.obj, o.off, o.n, err)
			}
			if (k+1)%window == 0 {
				marks = append(marks, db.Stats())
			}
		}
		return marks
	}

	sim, real := replay(paper), replay(serve)
	extra := real[0].PagesWritten - sim[0].PagesWritten
	if extra != 1 || real[0].WriteCalls-sim[0].WriteCalls != extra {
		t.Errorf("preload: simulator wrote %d pages in %d calls, serving stack %d pages in %d calls; want exactly one one-page call more",
			sim[0].PagesWritten, sim[0].WriteCalls, real[0].PagesWritten, real[0].WriteCalls)
	}
	for w := 1; w < len(sim); w++ {
		s, r := sim[w].Sub(sim[w-1]), real[w].Sub(real[w-1])
		if s.PagesWritten != r.PagesWritten || s.WriteCalls != r.WriteCalls {
			t.Errorf("ops %d-%d: simulator wrote %d pages in %d calls, serving stack %d pages in %d calls",
				(w-1)*window, w*window, s.PagesWritten, s.WriteCalls, r.PagesWritten, r.WriteCalls)
		}
		if s.PagesWritten == 0 {
			t.Errorf("ops %d-%d wrote nothing: the stream is not exercising the write path", (w-1)*window, w*window)
		}
	}
	last, lastReal := sim[len(sim)-1].Sub(sim[0]), real[len(real)-1].Sub(real[0])
	muts := 0
	for _, o := range stream {
		if o.kind != 'r' {
			muts++
		}
	}
	t.Logf("%d ops, %d mutations: %.1f pages written per mutation on both configurations; the preload cost the serving stack %d one-page writes more",
		len(stream), muts, float64(last.PagesWritten)/float64(muts), extra)
	t.Logf("reads (not pinned): 12-frame simulator %d pages in %d calls, 256-frame serving stack %d pages in %d calls",
		last.PagesRead, last.ReadCalls, lastReal.PagesRead, lastReal.ReadCalls)
}
