package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// Workload shapes. The numbers are the ones bench/README.md justifies; they
// are constants, not flags, so two sides of a comparison cannot differ.
const (
	pageSize = 4096
	clients  = 2 // connections and driving goroutines; nproc on the sandbox

	pointObjects  = 32
	pointObjBytes = 1 << 20
	pointReadSize = 4096

	scanObjsPerClient = 4
	scanObjBytes      = 8 << 20
	scanReadSize      = 1 << 20

	editObjsPerClient = 4
	editObjBytes      = 4 << 20
	editMeanOp        = 10_000 // sizes uniform in [mean/2, 3*mean/2]

	openObjects    = 32
	openObjBytes   = 1 << 20
	openOpSize     = 4096
	openRate       = 2000 // requests per second across both connections
	openPipeline   = 8    // requests in flight per connection
	openZipfS      = 1.2
	openReadPct    = 80
	sloNanos       = int64(2 * time.Millisecond)
	verifyOneInN   = 16 // reads verified outside edit-mix
	opseqCRCPrefix = 1000
)

type opKind uint8

const (
	opRead opKind = iota
	opAppend
	opInsert
	opDelete
	numKinds
)

var kindNames = [numKinds]string{"read", "append", "insert", "delete"}

func (k opKind) String() string { return kindNames[k] }

// op is one generated request. n is the byte count read or deleted, or the
// payload length written; key names the payload pattern of a write.
type op struct {
	kind opKind
	obj  int
	off  int64
	n    int
	key  uint64
}

func (o op) mutates() bool { return o.kind != opRead }

// workload describes one traffic mix.
type workload struct {
	name      string
	why       string
	objects   int
	objBytes  int64
	open      bool // open loop on a fixed schedule; otherwise closed loop
	shared    bool // clients mutate each other's objects, so acknowledged sizes have no fixed order
	verifyAll bool // every read is checked against the model; otherwise 1 in verifyOneInN
	newGen    func(seed int64, client int) *gen
}

var workloads = []workload{
	{
		name:    "read-point",
		why:     "closed loop, 2 clients: uniform-random 4 KB reads over 32 x 1 MB objects (32x the pool); no fsync, so wire/server/engine/index-descent changes show here and commit-path changes must not",
		objects: pointObjects, objBytes: pointObjBytes,
		newGen: func(seed int64, c int) *gen {
			g := newGen(seed, c, pointObjects, pointObjBytes)
			g.step = func() op {
				return op{kind: opRead, obj: g.rng.Intn(pointObjects), off: g.rng.Int63n(pointObjBytes - pointReadSize + 1), n: pointReadSize}
			}
			return g
		},
	},
	{
		name:    "read-scan",
		why:     "closed loop, 2 clients: each scans its own 4 x 8 MB objects in 1 MB requests; the large-value end of the size axis, where chunking, copies and direct I/O dominate and per-request cost is amortised",
		objects: clients * scanObjsPerClient, objBytes: scanObjBytes,
		newGen: func(seed int64, c int) *gen {
			g := newGen(seed, c, clients*scanObjsPerClient, scanObjBytes)
			pos := int64(0)
			g.step = func() op {
				const span = scanObjsPerClient * scanObjBytes
				o := op{kind: opRead, obj: c*scanObjsPerClient + int(pos/scanObjBytes), off: pos % scanObjBytes, n: scanReadSize}
				pos = (pos + scanReadSize) % span
				return o
			}
			return g
		},
	},
	{
		name:    "edit-mix",
		why:     "closed loop, 2 clients: the paper's 40/30/30 read/insert/delete mix, 10 KB +-50%, each client on its own 4 x 4 MB objects; every mutation is a durable shadow commit, so write_amp and space_amp move",
		objects: clients * editObjsPerClient, objBytes: editObjBytes, verifyAll: true,
		newGen: func(seed int64, c int) *gen {
			g := newGen(seed, c, clients*editObjsPerClient, editObjBytes)
			var lastInsert [clients * editObjsPerClient]int
			g.step = func() op {
				obj := c*editObjsPerClient + g.rng.Intn(editObjsPerClient)
				size := g.sizes[obj]
				opSize := func() int { return editMeanOp/2 + g.rng.Intn(editMeanOp+1) }
				switch p := g.rng.Intn(100); {
				case p < 40:
					n := min(int64(opSize()), size)
					return op{kind: opRead, obj: obj, off: g.rng.Int63n(size - n + 1), n: int(n)}
				case p < 70:
					n := opSize()
					lastInsert[obj] = n
					g.writes++
					return op{kind: opInsert, obj: obj, off: g.rng.Int63n(size + 1), n: n, key: writeKey(seed, c, g.writes)}
				default:
					// A delete is sized like the object's previous insert, so
					// sizes random-walk around their start (paper section 4.4).
					n := lastInsert[obj]
					if n == 0 {
						n = opSize()
					}
					n = int(min(int64(n), size))
					return op{kind: opDelete, obj: obj, off: g.rng.Int63n(size - int64(n) + 1), n: n}
				}
			}
			return g
		},
	},
	{
		name:    "mixed-open",
		why:     "open loop, 2000 req/s over 2 connections pipelining <= 8: 80% 4 KB reads / 20% 4 KB appends, Zipf(1.2) over 32 x 1 MB; reads beside durable writes on hot objects, timed from each request's due time",
		objects: openObjects, objBytes: openObjBytes, open: true, shared: true,
		newGen: func(seed int64, c int) *gen {
			g := newGen(seed, c, openObjects, openObjBytes)
			zipf := rand.NewZipf(g.rng, openZipfS, 1, openObjects-1)
			g.step = func() op {
				obj := int(zipf.Uint64())
				if g.rng.Intn(100) < openReadPct {
					// Reads stay inside the preloaded prefix, so they are
					// valid whatever order the pipelined appends land in.
					return op{kind: opRead, obj: obj, off: g.rng.Int63n(openObjBytes - openOpSize + 1), n: openOpSize}
				}
				return op{kind: opAppend, obj: obj, n: openOpSize, key: appendKey(seed, obj)}
			}
			return g
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// objNames are formatted once: conn.send runs inside every measured span.
var objNames = func() (names [max(pointObjects, openObjects)][]byte) {
	for i := range names {
		names[i] = []byte(fmt.Sprintf("obj-%02d", i))
	}
	return names
}()

func objName(i int) string { return string(objNames[i]) }

// gen produces one client's request stream. It tracks object sizes itself,
// assuming every request succeeds, so the stream is a pure function of
// (seed, client) and does not depend on the server or on timing.
type gen struct {
	rng    *rand.Rand
	sizes  []int64
	writes uint64
	step   func() op
}

func newGen(seed int64, client, objects int, objBytes int64) *gen {
	g := &gen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 1))}
	g.sizes = make([]int64, objects)
	for i := range g.sizes {
		g.sizes[i] = objBytes
	}
	return g
}

func (g *gen) next() op {
	o := g.step()
	switch o.kind {
	case opAppend, opInsert:
		g.sizes[o.obj] += int64(o.n)
	case opDelete:
		g.sizes[o.obj] -= int64(o.n)
	}
	return o
}

// opseqCRC hashes the first opseqCRCPrefix requests of every client's
// stream: equal seeds must give equal values, different seeds different ones.
func opseqCRC(w workload, seed int64) uint32 {
	var (
		crc uint32
		rec [8 * 5]byte
	)
	for c := 0; c < clients; c++ {
		g := w.newGen(seed, c)
		for i := 0; i < opseqCRCPrefix; i++ {
			o := g.next()
			for j, v := range [5]uint64{uint64(o.kind), uint64(o.obj), uint64(o.off), uint64(o.n), o.key} {
				binary.LittleEndian.PutUint64(rec[8*j:], v)
			}
			crc = crc32.Update(crc, crc32.IEEETable, rec[:])
		}
	}
	return crc
}

// Payload patterns. Every byte the benchmark writes is a pure function of a
// 64-bit key and its offset within that key's stream, so expected content is
// regenerated on demand instead of being stored.

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func preloadKey(seed int64, obj int) uint64 { return mix64(uint64(seed)<<8 | 1 | uint64(obj)<<40) }
func appendKey(seed int64, obj int) uint64  { return mix64(uint64(seed)<<8 | 2 | uint64(obj)<<40) }
func writeKey(seed int64, client int, n uint64) uint64 {
	return mix64(uint64(seed)<<8 | 3 | uint64(client)<<4 | n<<40)
}

// fill writes the key's stream at [off, off+len(dst)) into dst.
func fill(dst []byte, key uint64, off int64) {
	i := 0
	for ; i < len(dst) && (off+int64(i))&7 != 0; i++ {
		p := uint64(off) + uint64(i)
		dst[i] = byte(mix64(key+(p>>3)) >> (8 * (p & 7)))
	}
	w := (uint64(off) + uint64(i)) >> 3
	for ; i+8 <= len(dst); i, w = i+8, w+1 {
		binary.LittleEndian.PutUint64(dst[i:], mix64(key+w))
	}
	for ; i < len(dst); i++ {
		p := uint64(off) + uint64(i)
		dst[i] = byte(mix64(key+(p>>3)) >> (8 * (p & 7)))
	}
}

// piece is a run of an object's bytes taken from one key's stream.
type piece struct {
	key uint64
	off int64
	n   int64
}

// model is the expected content of every object as piece tables. It holds no
// payload bytes: an insert adds a piece, a delete trims pieces, and expected
// bytes for any range are regenerated with fill.
type model struct {
	mu   sync.Mutex // mixed-open's two receivers share hot objects
	objs [][]piece
}

func newModel(seed int64, w workload) *model {
	m := &model{objs: make([][]piece, w.objects)}
	for i := range m.objs {
		m.objs[i] = []piece{{key: preloadKey(seed, i), n: w.objBytes}}
	}
	return m
}

func (m *model) size(obj int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var s int64
	for _, p := range m.objs[obj] {
		s += p.n
	}
	return s
}

// split makes off a piece boundary and returns the index of the piece that
// starts there (len(pieces) when off is the object's size).
func (m *model) split(obj int, off int64) int {
	ps := m.objs[obj]
	for i, p := range ps {
		if off == 0 {
			return i
		}
		if off < p.n {
			ps = append(ps, piece{})
			copy(ps[i+2:], ps[i+1:])
			ps[i] = piece{p.key, p.off, off}
			ps[i+1] = piece{p.key, p.off + off, p.n - off}
			m.objs[obj] = ps
			return i + 1
		}
		off -= p.n
	}
	return len(ps)
}

// apply records an acknowledged mutation.
func (m *model) apply(o op) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch o.kind {
	case opAppend:
		m.objs[o.obj] = append(m.objs[o.obj], piece{o.key, 0, int64(o.n)})
	case opInsert:
		i := m.split(o.obj, o.off)
		ps := append(m.objs[o.obj], piece{})
		copy(ps[i+1:], ps[i:])
		ps[i] = piece{o.key, 0, int64(o.n)}
		m.objs[o.obj] = ps
	case opDelete:
		i := m.split(o.obj, o.off)
		j := m.split(o.obj, o.off+int64(o.n))
		ps := m.objs[o.obj]
		m.objs[o.obj] = append(ps[:i], ps[j:]...)
	}
}

// clone returns a model in which obj can change without touching m.
func (m *model) clone(obj int) *model {
	c := &model{objs: slices.Clone(m.objs)}
	c.objs[obj] = slices.Clone(m.objs[obj])
	return c
}

// expect regenerates the object's bytes at [off, off+len(dst)).
func (m *model) expect(dst []byte, obj int, off int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.objs[obj] {
		if len(dst) == 0 {
			return
		}
		if off >= p.n {
			off -= p.n
			continue
		}
		n := min(int64(len(dst)), p.n-off)
		fill(dst[:n], p.key, p.off+off)
		dst = dst[n:]
		off = 0
	}
}
