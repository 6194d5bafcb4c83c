package obs

import (
	"sync"
	"sync/atomic"
)

// SpanID identifies one open operation span. The zero SpanID is "no span"
// and is returned by Begin on a disabled tracer, making End a no-op.
type SpanID uint64

type spanFrame struct {
	id    SpanID
	op    Op
	start int64 // simulated clock at Begin
	wall  int64 // WallNow() at Begin
}

// Tracer fans events out to its sinks. A tracer with no sinks is disabled:
// Enabled() is false, Begin returns 0 and Emit does nothing, so the
// instrumentation adds no allocations to the hot paths. All methods are
// nil-receiver safe and safe for concurrent use: the disabled check is a
// single atomic load, everything else serializes on one mutex.
//
// The tracer tracks the stack of open operation spans and stamps every
// emitted event with the innermost one plus the simulated time.
type Tracer struct {
	enabled atomic.Bool

	mu       sync.Mutex
	sinks    []Sink
	timeFn   func() int64
	stack    []spanFrame
	nextSpan uint64
}

// NewTracer returns a disabled tracer; attach sinks to enable it.
func NewTracer() *Tracer { return &Tracer{} }

// SetTimeFunc installs the simulated-clock reader used to stamp events.
func (t *Tracer) SetTimeFunc(fn func() int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.timeFn = fn
	t.mu.Unlock()
}

// Attach adds a sink and enables the tracer.
func (t *Tracer) Attach(s Sink) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	t.sinks = append(t.sinks, s)
	t.enabled.Store(true)
	t.mu.Unlock()
}

// Enabled reports whether any sink is attached. Instrumentation sites guard
// event construction with this check.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// now reads the simulated clock; callers hold t.mu.
func (t *Tracer) now() int64 {
	if t.timeFn == nil {
		return 0
	}
	return t.timeFn()
}

// Emit stamps e with the simulated time and the innermost open span, then
// dispatches it to every sink. Callers should guard with Enabled().
func (t *Tracer) Emit(e Event) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	t.emitLocked(e)
	t.mu.Unlock()
}

// emitLocked is Emit with t.mu held.
func (t *Tracer) emitLocked(e Event) {
	if len(t.sinks) == 0 {
		return
	}
	e.Time = t.now()
	if n := len(t.stack); n > 0 {
		e.Span = uint64(t.stack[n-1].id)
		e.Op = t.stack[n-1].op
	}
	for _, s := range t.sinks {
		s.Record(e)
	}
}

// Count adds delta to a named counter of every attached Metrics registry.
// It is for work that is measured but is not an event: nothing is written
// to trace sinks, so traces stay as they were. Callers should guard with
// Enabled().
func (t *Tracer) Count(name string, delta int64) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	for _, s := range t.sinks {
		if m, ok := s.(*Metrics); ok {
			m.Add(name, delta)
		}
	}
	t.mu.Unlock()
}

// Begin opens an operation span; all events emitted until the matching End
// are tagged with it. Spans nest (the innermost wins). Returns 0 when the
// tracer is disabled.
func (t *Tracer) Begin(op Op) SpanID {
	if !t.Enabled() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.sinks) == 0 {
		return 0 // detached between the Enabled check and the lock
	}
	t.nextSpan++
	id := SpanID(t.nextSpan)
	t.stack = append(t.stack, spanFrame{id: id, op: op, start: t.now(), wall: WallNow()})
	t.emitLocked(Event{Kind: KindSpanBegin})
	return id
}

// End closes the span opened by Begin, emitting a span.end event carrying
// the span's simulated duration (Aux1), its wall-clock duration (Wall) and,
// when err != nil, its error text.
// End(0, …) is a no-op, so Begin/End pairs need no disabled-path branching.
func (t *Tracer) End(id SpanID, err error) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Pop down to (and including) id; tolerates unbalanced nesting.
	for len(t.stack) > 0 {
		top := t.stack[len(t.stack)-1]
		if top.id < id {
			break
		}
		e := Event{Kind: KindSpanEnd, Aux1: t.now() - top.start, Wall: WallNow() - top.wall}
		if err != nil && top.id == id {
			e.Err = err.Error()
		}
		// Stamp with the span being closed, not its parent.
		e.Time = t.now()
		e.Span = uint64(top.id)
		e.Op = top.op
		t.stack = t.stack[:len(t.stack)-1]
		for _, s := range t.sinks {
			s.Record(e)
		}
		if top.id == id {
			break
		}
	}
}

// Close closes every attached sink and detaches them, disabling the tracer.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var first error
	for _, s := range t.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.sinks = nil
	t.enabled.Store(false)
	return first
}
