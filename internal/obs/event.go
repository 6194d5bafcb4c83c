// Package obs is the structured observability layer of the simulator: a
// zero-overhead-when-disabled event tracer with pluggable sinks.
//
// Every layer of the storage system — the simulated disk, the buffer pool,
// the buddy space manager, the positional tree and the three large object
// managers — emits typed Events through one Tracer per database. Events are
// tagged with the operation span (Create/Read/Insert/…) that is open at the
// public API boundary, so a trace can be sliced per operation.
//
// The paper's methodology is counting (§4.1: I/O calls, pages, seeks);
// this package keeps the counting but preserves the distributions the
// 5-field totals throw away: I/O call sizes, seek distances, buffer hit
// rates, tree descent depths and buddy fragmentation.
//
// Sinks:
//
//   - Ring    — fixed-capacity in-memory ring buffer (debugging, tests)
//   - JSONL   — one JSON object per event on an io.Writer (lobtrace)
//   - Metrics — aggregating registry of counters, fixed-bucket
//     histograms and per-op HDR latency percentiles (simulated and
//     wall-clock µs), exportable as text, CSV, JSON and Prometheus text
//
// When no sink is attached the tracer is disabled: every instrumentation
// site is guarded by Enabled(), which is a nil-safe boolean check, and the
// hot paths allocate nothing.
package obs

// Op names the public API operation a span covers.
type Op uint8

// Operation spans opened at the lobstore API boundary.
const (
	OpNone Op = iota
	OpCreate
	OpOpen
	OpRead
	OpAppend
	OpInsert
	OpDelete
	OpReplace
	OpClose
	OpDestroy
	numOps
)

var opNames = [numOps]string{
	OpNone:    "",
	OpCreate:  "create",
	OpOpen:    "open",
	OpRead:    "read",
	OpAppend:  "append",
	OpInsert:  "insert",
	OpDelete:  "delete",
	OpReplace: "replace",
	OpClose:   "close",
	OpDestroy: "destroy",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// ParseOp inverts Op.String.
func ParseOp(s string) (Op, bool) {
	for i, n := range opNames {
		if n == s && i != int(OpNone) {
			return Op(i), true
		}
	}
	return OpNone, false
}

// Kind is the event type.
type Kind uint8

// Event kinds, grouped by emitting layer.
const (
	// Span lifecycle (lobstore API boundary).
	KindSpanBegin Kind = iota
	KindSpanEnd
	// Simulated disk: one event per I/O call.
	KindIORead
	KindIOWrite
	KindIOError
	// Buffer pool.
	KindBufHit
	KindBufMiss
	KindBufEvict
	KindBufFlush
	KindBufFetchRun
	// Buddy space manager.
	KindAlloc
	KindFree
	KindSplit
	KindCoalesce
	// Positional tree and the three managers.
	KindDescend
	KindLeafSplit
	KindLeafMerge
	KindExtentDouble
	// Durable volume commit pipeline (every file-backend barrier).
	KindVolGroupCommit
	KindVolFsync
	numKinds
)

var kindNames = [numKinds]string{
	KindSpanBegin:      "span.begin",
	KindSpanEnd:        "span.end",
	KindIORead:         "io.read",
	KindIOWrite:        "io.write",
	KindIOError:        "io.error",
	KindBufHit:         "buf.hit",
	KindBufMiss:        "buf.miss",
	KindBufEvict:       "buf.evict",
	KindBufFlush:       "buf.flush",
	KindBufFetchRun:    "buf.fetchrun",
	KindAlloc:          "buddy.alloc",
	KindFree:           "buddy.free",
	KindSplit:          "buddy.split",
	KindCoalesce:       "buddy.coalesce",
	KindDescend:        "tree.descend",
	KindLeafSplit:      "leaf.split",
	KindLeafMerge:      "leaf.merge",
	KindExtentDouble:   "extent.double",
	KindVolGroupCommit: "vol.groupcommit",
	KindVolFsync:       "vol.fsync",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// ParseKind inverts Kind.String.
func ParseKind(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Event is one structured trace record. It is a flat value type so that
// emitting an event allocates nothing.
//
// Field use by kind:
//
//	io.read/io.write  Area/Page/Pages of the call, Aux1 = seek distance in
//	                  pages from the previous head position
//	io.error          the attempted call; Err carries the injected error
//	buf.*             Area/Page (Pages on fetchrun = run length)
//	buddy.alloc/free  Area/Page/Pages of the segment
//	buddy.split       Aux1 = order split, Aux2 = resulting order
//	buddy.coalesce    Aux1 = order merged into
//	tree.descend      Aux1 = descent depth in index pages
//	leaf.split        Aux1 = resulting leaf count
//	leaf.merge        —
//	extent.double     Aux1 = next extent size in pages
//	vol.groupcommit   Pages = flush batches since the last emission, Aux1 =
//	                  average barriers acknowledged per batch, Aux2 = total
//	                  barriers acknowledged
//	vol.fsync         Aux1 = device flushes issued since the last emission
//	span.begin        Op/Span of the new span
//	span.end          Aux1 = span duration in simulated µs, Wall = span
//	                  duration in wall-clock µs; Err if failed
//
// Wall is populated only on span.end and only by live sinks' consumers
// (Metrics); the JSONL sink deliberately omits it so traces of
// identical runs stay byte-identical regardless of host speed.
type Event struct {
	Time  int64 // simulated clock, microseconds
	Span  uint64
	Aux1  int64
	Aux2  int64
	Wall  int64 // wall-clock span duration, microseconds (span.end only)
	Page  uint32
	Pages int32
	Kind  Kind
	Op    Op
	Area  uint8
	Err   string
}

// Sink consumes events. Implementations must tolerate being shared by
// several tracers but are not required to be goroutine-safe unless
// documented (the simulation is single-threaded).
type Sink interface {
	Record(e Event)
	// Close flushes buffered state. The tracer closes its sinks once.
	Close() error
}
