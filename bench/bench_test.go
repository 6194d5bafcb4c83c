package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"lobstore/internal/wire"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkJSONMatchesCode: the contract file declares exactly the
// workloads and metrics the program knows.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if !reflect.DeepEqual(doc.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end differs from endToEndDefs:\n%v\n%v", doc.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayerDefs) {
		t.Errorf("per_layer differs from perLayerDefs")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d known", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, known %q", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload for one measured
// second in both modes and requires every declared name once, finite and
// well-formed, with no failed request.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		for _, mode := range []struct {
			trace string
			defs  []metricDef
		}{{"0", endToEndDefs}, {"1", perLayerDefs}} {
			t.Run(w.name+"/trace"+mode.trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := realMain([]string{"--workload", w.name, "--seed", "5", "--seconds", "1", "-warmup", "0.2",
					"--trace", mode.trace, "-outdir", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var rep map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatal(err)
				}
				if len(rep) != 4 {
					t.Errorf("report has keys %v", rep)
				}
				var r report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
					t.Errorf("correct %v, attempted %d, failed %d", r.Correct, r.Attempted, r.Failed)
				}
				if len(r.Metrics) != len(mode.defs) {
					t.Errorf("%d metrics reported, %d declared", len(r.Metrics), len(mode.defs))
				}
				for _, d := range mode.defs {
					v, ok := r.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s missing", d.Name)
					case v.Unit != d.Unit:
						t.Errorf("%s: unit %q, declared %q", d.Name, v.Unit, d.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s is %v", d.Name, v.Value)
					case !nameRE.MatchString(d.Name):
						t.Errorf("%s is not a valid name", d.Name)
					}
				}
				if mode.trace == "0" {
					for _, d := range mode.defs {
						// Under the race detector a 1 MB read misses the 2 ms
						// SLO every time, so that fraction may be 0 here.
						if r.Metrics[d.Name].Value <= 0 && d.Name != "slo_ok_frac" {
							t.Errorf("%s = %v; end-to-end metrics are never 0", d.Name, r.Metrics[d.Name].Value)
						}
					}
				} else if r.Metrics["disk.barriers_per_write"].Value != 0 && strings.HasPrefix(w.name, "read-") {
					t.Errorf("read-only workload paid %v barriers per write", r.Metrics["disk.barriers_per_write"].Value)
				}
			})
		}
	}
}

// TestSeedFixesTheStream: equal seeds give the same request stream and the
// same memory-backend counts; another seed gives another stream.
func TestSeedFixesTheStream(t *testing.T) {
	for _, w := range workloads {
		if a, b := opseqCRC(w, 7), opseqCRC(w, 7); a != b {
			t.Errorf("%s: seed 7 hashed to %d and %d", w.name, a, b)
		}
		if w.name == "read-scan" {
			continue // a sequential scan has no randomness to seed
		}
		if a, b := opseqCRC(w, 7), opseqCRC(w, 8); a == b {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.name)
		}
	}
	counts := func(seed int64) map[string]float64 {
		out := map[string]float64{}
		if err := compareStructures(out, seed); err != nil {
			t.Fatal(err)
		}
		for k := range out {
			if strings.Contains(k, "_cpu_") {
				delete(out, k) // wall time
			}
		}
		return out
	}
	a, b := counts(7), counts(7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seed 7 counted differently twice:\n%v\n%v", a, b)
	}
	if len(a) != 3*7 {
		t.Errorf("%d structure counts, want 21", len(a))
	}
}

// stub is a wire server that answers from the payload patterns instead of a
// store, and can stall once or corrupt one read.
type stub struct {
	ln        net.Listener
	seed      int64
	mu        sync.Mutex // one request at a time, so a stall blocks everyone
	served    int
	stallAt   int // request number that sleeps for stall first
	stall     time.Duration
	corruptAt int // request number whose read data is damaged
	wg        sync.WaitGroup
}

func startStub(t *testing.T, s *stub) []*conn {
	t.Helper()
	var err error
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := s.ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer c.Close()
				s.serve(c)
			}()
		}
	}()
	conns := make([]*conn, clients)
	for i := range conns {
		if conns[i], err = dial(s.ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, c := range conns {
			c.close()
		}
		s.ln.Close()
		s.wg.Wait()
	})
	return conns
}

func (s *stub) serve(c net.Conn) {
	r := wire.NewReader(c, 0)
	var body, out []byte
	for {
		h, err := r.Next()
		if err != nil {
			return
		}
		if body, err = r.Payload(h, body); err != nil {
			return
		}
		s.mu.Lock()
		s.served++
		n := s.served
		if n == s.stallAt {
			time.Sleep(s.stall)
		}
		s.mu.Unlock()
		out = append(out[:0], make([]byte, wire.HeaderSize)...)
		typ := wire.RespOK
		switch h.Type {
		case wire.OpRead:
			req, err := wire.ParseReadReq(body)
			if err != nil {
				return
			}
			var obj int
			if _, err := fmt.Sscanf(string(req.Name), "obj-%d", &obj); err != nil {
				return
			}
			out = append(out, make([]byte, req.Len)...)
			fill(out[wire.HeaderSize:], preloadKey(s.seed, obj), int64(req.Off))
			if n == s.corruptAt {
				out[wire.HeaderSize] ^= 0xff
			}
			typ = wire.RespData
		default:
			out = wire.AppendOKResp(out, wire.OKResp{Size: openObjBytes + openOpSize})
		}
		wire.PutHeader(out, wire.Header{Type: typ, Flags: wire.FlagLast, ReqID: h.ReqID, Len: uint32(len(out) - wire.HeaderSize)})
		if _, err := c.Write(out); err != nil {
			return
		}
	}
}

// TestOpenLoopChargesStall: requests that fall due while the server is
// stalled are timed from their due time, not from when a pipeline slot
// finally let them out.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		rate    = 1000
		stallAt = 100
		stall   = 50 * time.Millisecond
	)
	w, err := findWorkload("mixed-open")
	if err != nil {
		t.Fatal(err)
	}
	conns := startStub(t, &stub{seed: 1, stallAt: stallAt, stall: stall})
	r, err := openLoop(newGens(w, 1), conns, nil, rate, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Request stallAt-1 (numbered from 0) is the one that sleeps; it was due
	// at (stallAt-1) ms, and request i behind it waited until the stall
	// ended: at least stall - (i - stallAt + 1) ms.
	slow := 0
	for _, cs := range r.samples {
		for _, x := range cs {
			i := int(x.seq) - (stallAt - 1)
			if i < 0 || i >= 40 {
				continue
			}
			want := stall - time.Duration(i)*time.Millisecond - 5*time.Millisecond
			if got := time.Duration(x.end - x.start); got < want {
				t.Errorf("request %d, due %d ms into a 50 ms stall, was charged %v, want at least %v", x.seq, i, got, want)
			}
			slow++
		}
	}
	if slow != 40 {
		t.Errorf("%d of the 40 requests due during the stall were recorded", slow)
	}
	if r.backlogMax < 20 {
		t.Errorf("backlog_max %d after a 50 ms stall at 1000 req/s", r.backlogMax)
	}
}

// TestCorruptReadIsAFailure: one damaged byte in one verified read makes
// that request a failure.
func TestCorruptReadIsAFailure(t *testing.T) {
	w, err := findWorkload("read-point")
	if err != nil {
		t.Fatal(err)
	}
	// One client verifies every verifyOneInN-th read it sends; damage the
	// second of those. A stub that damages nothing is the control.
	for _, tc := range []struct{ corruptAt, failed int }{{0, 0}, {2 * verifyOneInN, 1}} {
		conns := startStub(t, &stub{seed: 1, corruptAt: tc.corruptAt})
		r, err := closedLoop(w, newGens(w, 1), []executor{conns[0]}, newModel(1, w), 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		s := summarize(r, 0.05, 1)
		if s.failed != tc.failed || s.attempted < 3*verifyOneInN {
			t.Errorf("corrupting request %d: %d failed of %d, want %d", tc.corruptAt, s.failed, s.attempted, tc.failed)
		}
	}
}
