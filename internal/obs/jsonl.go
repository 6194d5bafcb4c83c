package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// jsonEvent is the wire form of an Event: short keys, zero fields omitted.
// Event.Wall is intentionally absent: trace files must be a pure function
// of the seed (byte-identical across runs), so wall-clock durations live
// only in live sinks (Metrics).
type jsonEvent struct {
	T    int64  `json:"t"`
	K    string `json:"k"`
	Op   string `json:"op,omitempty"`
	Span uint64 `json:"sp,omitempty"`
	Area uint8  `json:"a,omitempty"`
	Page uint32 `json:"p,omitempty"`
	N    int32  `json:"n,omitempty"`
	X1   int64  `json:"x1,omitempty"`
	X2   int64  `json:"x2,omitempty"`
	Err  string `json:"err,omitempty"`
}

// JSONL is a sink writing one JSON object per event. Output is buffered;
// Close (or Flush) drains the buffer. Safe for concurrent use.
type JSONL struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
}

// NewJSONL creates a JSONL trace writer over w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: bufio.NewWriterSize(w, 1<<16)} }

// Record implements Sink.
func (j *JSONL) Record(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	b, err := json.Marshal(jsonEvent{
		T:    e.Time,
		K:    e.Kind.String(),
		Op:   e.Op.String(),
		Span: e.Span,
		Area: e.Area,
		Page: e.Page,
		N:    e.Pages,
		X1:   e.Aux1,
		X2:   e.Aux2,
		Err:  e.Err,
	})
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.w.Write(b); err != nil {
		j.err = err
		return
	}
	j.err = j.w.WriteByte('\n')
}

// Flush drains buffered output without closing.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	return j.w.Flush()
}

// Close implements Sink.
func (j *JSONL) Close() error { return j.Flush() }

// ReadJSONL decodes a JSONL trace, calling fn for every event. Unknown
// kinds are skipped (forward compatibility); malformed lines are errors.
func ReadJSONL(r io.Reader, fn func(e Event) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		k, ok := ParseKind(je.K)
		if !ok {
			continue
		}
		op, _ := ParseOp(je.Op)
		e := Event{
			Time:  je.T,
			Kind:  k,
			Op:    op,
			Span:  je.Span,
			Area:  je.Area,
			Page:  je.Page,
			Pages: je.N,
			Aux1:  je.X1,
			Aux2:  je.X2,
			Err:   je.Err,
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	return sc.Err()
}
