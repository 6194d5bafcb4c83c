package lobstore_test

// Observability acceptance tests: the JSONL trace must agree exactly with
// the disk's own accounting, and the instrumentation must be free when no
// sink is attached.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
	"time"

	"lobstore"
	"lobstore/internal/obs"
)

// TestTraceFidelity replays a workload over all three managers with both a
// trace and a metrics registry attached, then checks that the I/O totals
// derived from the JSONL events equal the disk's sim stats exactly.
func TestTraceFidelity(t *testing.T) {
	db, err := lobstore.Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	db.EnableTrace(&trace)
	m := db.EnableMetrics(nil)
	base := db.Stats()
	hits0, misses0 := db.PoolHitRate()
	steps0, fallbacks0 := db.PoolVictimStats()

	workout := func(newObj func() (lobstore.Object, error)) {
		t.Helper()
		obj, err := newObj()
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 300<<10)
		for i := range data {
			data[i] = byte(i)
		}
		if err := obj.Append(data); err != nil {
			t.Fatal(err)
		}
		if err := obj.Insert(1000, data[:40<<10]); err != nil {
			t.Fatal(err)
		}
		if err := obj.Replace(5000, data[:10<<10]); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64<<10)
		if err := obj.Read(2000, buf); err != nil {
			t.Fatal(err)
		}
		if err := obj.Delete(500, 100<<10); err != nil {
			t.Fatal(err)
		}
		if err := obj.Close(); err != nil {
			t.Fatal(err)
		}
	}
	workout(func() (lobstore.Object, error) { return db.NewESM(4) })
	workout(func() (lobstore.Object, error) { return db.NewEOS(4) })
	workout(func() (lobstore.Object, error) { return db.NewStarburst(0) })

	if err := db.FlushTrace(); err != nil {
		t.Fatal(err)
	}
	want := db.Stats().Sub(base)

	var got lobstore.Stats
	var spanDepth, spanMax int
	var untagged int64
	err = obs.ReadJSONL(bytes.NewReader(trace.Bytes()), func(e obs.Event) error {
		switch e.Kind {
		case obs.KindIORead:
			got.ReadCalls++
			got.PagesRead += int64(e.Pages)
			got.SeekDistance += e.Aux1
			if e.Span == 0 {
				untagged++
			}
		case obs.KindIOWrite:
			got.WriteCalls++
			got.PagesWritten += int64(e.Pages)
			got.SeekDistance += e.Aux1
			if e.Span == 0 {
				untagged++
			}
		case obs.KindSpanBegin:
			spanDepth++
			if spanDepth > spanMax {
				spanMax = spanDepth
			}
		case obs.KindSpanEnd:
			spanDepth--
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if got.ReadCalls != want.ReadCalls || got.WriteCalls != want.WriteCalls ||
		got.PagesRead != want.PagesRead || got.PagesWritten != want.PagesWritten ||
		got.SeekDistance != want.SeekDistance {
		t.Fatalf("trace-derived totals %+v != sim stats %+v", got, want)
	}
	if spanDepth != 0 {
		t.Fatalf("%d spans left open at end of trace", spanDepth)
	}
	if spanMax < 1 {
		t.Fatal("no operation spans in trace")
	}
	if untagged != 0 {
		t.Fatalf("%d I/O events outside any operation span", untagged)
	}

	// The metrics registry watched the same event stream.
	if m.Counter("io.read.calls") != want.ReadCalls ||
		m.Counter("io.write.calls") != want.WriteCalls ||
		m.Counter("io.read.pages") != want.PagesRead ||
		m.Counter("io.write.pages") != want.PagesWritten ||
		m.Counter("io.seek.pages") != want.SeekDistance {
		t.Fatalf("metrics disagree with sim stats %+v", want)
	}
	hits, misses := db.PoolHitRate()
	if m.Counter("buf.hits") != hits-hits0 || m.Counter("buf.misses") != misses-misses0 {
		t.Fatalf("metrics buf %d/%d, pool saw %d/%d since attach",
			m.Counter("buf.hits"), m.Counter("buf.misses"), hits-hits0, misses-misses0)
	}
	steps, fallbacks := db.PoolVictimStats()
	if steps == steps0 {
		t.Fatal("pool never searched for a victim")
	}
	if m.Counter("buffer.victim.steps") != steps-steps0 || m.Counter("buffer.victim.fallbacks") != fallbacks-fallbacks0 {
		t.Fatalf("metrics victim search %d/%d, pool saw %d/%d since attach",
			m.Counter("buffer.victim.steps"), m.Counter("buffer.victim.fallbacks"), steps-steps0, fallbacks-fallbacks0)
	}
	if db.Metrics() != m {
		t.Fatal("Metrics() accessor does not return the attached registry")
	}
	for _, c := range []string{"op.append.count", "op.insert.count", "op.read.count",
		"op.delete.count", "op.replace.count", "op.close.count", "op.create.count"} {
		if m.Counter(c) == 0 {
			t.Errorf("counter %s never bumped", c)
		}
	}
}

// TestOffModeTraceUnchanged pins the paper configuration at the trace
// level: identical workloads on fresh databases produce byte-identical
// JSONL traces, and with Concurrent unset the metrics registry shows none
// of the engine's counters.
func TestOffModeTraceUnchanged(t *testing.T) {
	run := func() ([]byte, *lobstore.Metrics) {
		db, err := lobstore.Open(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		db.EnableTrace(&trace)
		m := db.EnableMetrics(nil)
		obj, err := db.NewEOS(4)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 200<<10)
		for i := range data {
			data[i] = byte(i)
		}
		if err := obj.Append(data); err != nil {
			t.Fatal(err)
		}
		if err := obj.Insert(1000, data[:30<<10]); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64<<10)
		if err := obj.Read(2000, buf); err != nil {
			t.Fatal(err)
		}
		if err := obj.Delete(500, 50<<10); err != nil {
			t.Fatal(err)
		}
		if err := db.FlushTrace(); err != nil {
			t.Fatal(err)
		}
		return trace.Bytes(), m
	}

	a, m := run()
	b, _ := run()
	if !bytes.Equal(a, b) {
		t.Fatal("same workload, same config: traces differ")
	}

	// The concurrent engine sits above this path and must be completely
	// dark with Concurrent unset: no lock, snapshot or epoch activity may
	// leak into off-mode accounting (the traces compared above would
	// catch extra I/O; these counters catch the engine running at all).
	for _, c := range []string{"engine.lock.acquires", "engine.lock.cancels",
		"engine.snapshot.opens", "engine.epoch.retired", "engine.epoch.reclaimed"} {
		if n := m.Counter(c); n != 0 {
			t.Fatalf("off-mode metrics: %s = %d, want 0", c, n)
		}
	}
}

// TestTraceDigestPinned pins each manager's I/O to the byte across builds,
// not just across two runs of one build: a fixed operation sequence on the
// memory backend must produce a JSONL trace with a known SHA-256 and known
// disk totals. A change that reorders, adds or drops one I/O anywhere on
// these paths fails here; a deliberate behaviour change updates the
// constants and says why.
func TestTraceDigestPinned(t *testing.T) {
	for _, c := range []struct {
		spec   lobstore.ObjectSpec
		digest string
		stats  lobstore.Stats
	}{
		{lobstore.ObjectSpec{Engine: "esm", LeafPages: 4},
			"9ed9ffcc6d322129470260b5731a79f3963735972f57d3c4665888059d56f388",
			lobstore.Stats{ReadCalls: 14, WriteCalls: 25, PagesRead: 46, PagesWritten: 78, SeekDistance: 37590, Time: 1783 * time.Millisecond}},
		{lobstore.ObjectSpec{Engine: "eos", Threshold: 4},
			"5e0dd5d259ced11aaca93d437beb27ca9e6b137bc4ba791eab35c40f7bced1e8",
			lobstore.Stats{ReadCalls: 17, WriteCalls: 19, PagesRead: 48, PagesWritten: 80, SeekDistance: 37596, Time: 1700 * time.Millisecond}},
		{lobstore.ObjectSpec{Engine: "starburst"},
			"99e8c9b53f9094dafaabbc1ba39c187b46d879f49837b86e3ea3ea3a16b4e058",
			lobstore.Stats{ReadCalls: 21, WriteCalls: 17, PagesRead: 189, PagesWritten: 219, SeekDistance: 37754, Time: 2886 * time.Millisecond}},
	} {
		t.Run(c.spec.Engine, func(t *testing.T) {
			db, err := lobstore.Open(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			var trace bytes.Buffer
			db.EnableTrace(&trace)
			data := make([]byte, 200<<10)
			for i := range data {
				data[i] = byte(i * 7)
			}
			buf := make([]byte, 64<<10)
			obj, err := db.Create("pinned", c.spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range []func() error{
				func() error { return obj.Append(data) },
				func() error { return obj.Insert(1000, data[:30<<10]) },
				func() error { return obj.Read(2000, buf) },
				func() error { return obj.Replace(5000, data[:10<<10]) },
				func() error { return obj.Delete(500, 50<<10) },
				obj.Close,
			} {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			if obj, err = db.OpenObject("pinned"); err != nil {
				t.Fatal(err)
			}
			if err := obj.Read(7000, buf); err != nil {
				t.Fatal(err)
			}
			if err := obj.Destroy(); err != nil {
				t.Fatal(err)
			}
			if err := db.FlushTrace(); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(trace.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.digest {
				t.Errorf("trace digest %s, pinned %s", got, c.digest)
			}
			if got := db.Stats(); got != c.stats {
				t.Errorf("disk totals %#v, pinned %#v", got, c.stats)
			}
		})
	}
}

// TestSharedMetricsRegistry accumulates two databases into one registry.
func TestSharedMetricsRegistry(t *testing.T) {
	shared := lobstore.NewMetrics()
	var total int64
	for i := 0; i < 2; i++ {
		db, err := lobstore.Open(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if got := db.EnableMetrics(shared); got != shared {
			t.Fatal("EnableMetrics did not adopt the shared registry")
		}
		base := db.Stats()
		obj, err := db.NewEOS(4)
		if err != nil {
			t.Fatal(err)
		}
		if err := obj.Append(make([]byte, 100<<10)); err != nil {
			t.Fatal(err)
		}
		d := db.Stats().Sub(base)
		total += d.ReadCalls + d.WriteCalls
	}
	if got := shared.Counter("io.read.calls") + shared.Counter("io.write.calls"); got != total {
		t.Fatalf("shared registry saw %d I/O calls, databases did %d", got, total)
	}
}

// TestFailedOperationSpansCarryError checks that an injected I/O failure
// surfaces as an io.error event and an errored span end.
func TestFailedOperationSpansCarryError(t *testing.T) {
	db, err := lobstore.Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	db.EnableTrace(&trace)
	m := db.EnableMetrics(nil)
	obj, err := db.NewEOS(4)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected fault")
	db.InjectIOFailure(0, boom)
	if err := obj.Append(make([]byte, 64<<10)); !errors.Is(err, boom) {
		t.Fatalf("append returned %v, want injected fault", err)
	}
	db.InjectIOFailure(-1, nil)
	if err := db.FlushTrace(); err != nil {
		t.Fatal(err)
	}
	var sawIOError, sawErroredSpan bool
	err = obs.ReadJSONL(bytes.NewReader(trace.Bytes()), func(e obs.Event) error {
		switch e.Kind {
		case obs.KindIOError:
			sawIOError = true
		case obs.KindSpanEnd:
			if e.Op == obs.OpAppend && e.Err != "" {
				sawErroredSpan = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawIOError {
		t.Error("trace has no io.error event")
	}
	if !sawErroredSpan {
		t.Error("trace has no errored append span")
	}
	if m.Counter("io.errors") != 1 || m.Counter("op.append.errors") != 1 {
		t.Errorf("metrics io.errors=%d op.append.errors=%d, want 1/1",
			m.Counter("io.errors"), m.Counter("op.append.errors"))
	}
}

// TestReadHotPathZeroAllocWhenDisabled pins the zero-overhead claim: with
// no sink attached, a large aligned sequential read — which bypasses the
// buffer pool and lands directly in the caller's buffer — performs zero
// allocations per operation.
func TestReadHotPathZeroAllocWhenDisabled(t *testing.T) {
	db, err := lobstore.Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ps := db.PageSize()
	// A known-size field uses one maximal segment, so an aligned multi-page
	// read stays within a single extent.
	obj, err := db.NewStarburstKnownSize(0, int64(256*ps))
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Append(make([]byte, 256*ps)); err != nil {
		t.Fatal(err)
	}
	// 8 aligned pages exceed the pool's max buffered run, so the read goes
	// straight from the simulated disk into dst.
	dst := make([]byte, 8*ps)
	allocs := testing.AllocsPerRun(100, func() {
		if err := obj.Read(0, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled-observability read allocates %.1f times per op, want 0", allocs)
	}
}

// TestLeafFragmentationSnapshot sanity-checks the allocator snapshot.
func TestLeafFragmentationSnapshot(t *testing.T) {
	db, err := lobstore.Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	obj, err := db.NewEOS(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Append(make([]byte, 200<<10)); err != nil {
		t.Fatal(err)
	}
	// Fragment the area: punch holes in the middle of the object.
	for off := int64(10 << 10); off < 150<<10; off += 40 << 10 {
		if err := obj.Delete(off, 4<<10); err != nil {
			t.Fatal(err)
		}
	}
	after := db.LeafFragmentation()
	if after.FreeBlocks == 0 || after.FreeChunks == 0 {
		t.Fatalf("no free space tracked after carving: %+v", after)
	}
	if int64(after.LargestFree) > after.FreeBlocks {
		t.Fatalf("largest free run %d exceeds free total %d", after.LargestFree, after.FreeBlocks)
	}
	var chunks int64
	for _, c := range after.ByOrder {
		chunks += c
	}
	if chunks != after.FreeChunks {
		t.Fatalf("ByOrder sums to %d chunks, FreeChunks says %d", chunks, after.FreeChunks)
	}
	if idx := after.Index(); idx < 0 || idx > 1 {
		t.Fatalf("fragmentation index %f outside [0,1]", idx)
	}
	if after.String() == "" {
		t.Fatal("empty fragmentation string")
	}
}
