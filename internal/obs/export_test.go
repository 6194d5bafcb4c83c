package obs

import (
	"bytes"
	"strings"
	"testing"
)

// goldenMetrics builds a small registry with fully deterministic contents,
// shared by the golden-output tests.
func goldenMetrics() *Metrics {
	m := NewMetrics()
	feed := []Event{
		{Kind: KindSpanBegin, Op: OpRead},
		{Kind: KindIORead, Pages: 4, Aux1: 10},
		{Kind: KindBufHit},
		{Kind: KindBufMiss},
		{Kind: KindSpanEnd, Op: OpRead, Aux1: 1500, Wall: 40},
		{Kind: KindSpanBegin, Op: OpRead},
		{Kind: KindSpanEnd, Op: OpRead, Aux1: 2500, Wall: 60},
	}
	for _, e := range feed {
		m.Record(e)
	}
	return m
}

func TestWriteTextGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenMetrics().WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	want := `counters:
  buf.hits                            1
  buf.misses                          1
  io.read.calls                       1
  io.read.pages                       4
  io.seek.pages                      10
  op.read.count                       2
  buf.hitrate                     50.0%
histogram io.size (pages): n=1 mean=4.0 max=4
  <=4                   1
histogram io.seek (pages): n=1 mean=10.0 max=10
  <=64                  1
histogram op.read.latency (µs): n=2 mean=2000.0 max=2500
  <=5000                2
latency op.read sim[µs]: n=2 p50=1500 p90=2500 p95=2500 p99=2500 p999=2500 max=2500
latency op.read wall[µs]: n=2 p50=40 p90=60 p95=60 p99=60 p999=60 max=60
`
	if got := buf.String(); got != want {
		t.Errorf("WriteText golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWriteCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenMetrics().WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	want := `type,name,bucket,value
counter,buf.hits,,1
counter,buf.misses,,1
counter,io.read.calls,,1
counter,io.read.pages,,4
counter,io.seek.pages,,10
counter,op.read.count,,2
hist,io.size,<=1,0
hist,io.size,<=2,0
hist,io.size,<=4,1
hist,io.size,<=8,0
hist,io.size,<=16,0
hist,io.size,<=32,0
hist,io.size,<=64,0
hist,io.size,<=128,0
hist,io.size,<=256,0
hist,io.size,>256,0
hist,io.size,sum,4
hist,io.size,count,1
hist,io.seek,<=0,0
hist,io.seek,<=1,0
hist,io.seek,<=8,0
hist,io.seek,<=64,1
hist,io.seek,<=512,0
hist,io.seek,<=4096,0
hist,io.seek,<=32768,0
hist,io.seek,>32768,0
hist,io.seek,sum,10
hist,io.seek,count,1
hist,op.read.latency,<=100,0
hist,op.read.latency,<=500,0
hist,op.read.latency,<=1000,0
hist,op.read.latency,<=5000,2
hist,op.read.latency,<=10000,0
hist,op.read.latency,<=50000,0
hist,op.read.latency,<=100000,0
hist,op.read.latency,<=500000,0
hist,op.read.latency,<=1000000,0
hist,op.read.latency,<=5000000,0
hist,op.read.latency,<=20000000,0
hist,op.read.latency,>20000000,0
hist,op.read.latency,sum,4000
hist,op.read.latency,count,2
latency,op.read.sim,n,2
latency,op.read.sim,p50,1500
latency,op.read.sim,p90,2500
latency,op.read.sim,p95,2500
latency,op.read.sim,p99,2500
latency,op.read.sim,p999,2500
latency,op.read.sim,max,2500
latency,op.read.wall,n,2
latency,op.read.wall,p50,40
latency,op.read.wall,p90,60
latency,op.read.wall,p95,60
latency,op.read.wall,p99,60
latency,op.read.wall,p999,60
latency,op.read.wall,max,60
`
	if got := buf.String(); got != want {
		t.Errorf("WriteCSV golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWriteProm(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenMetrics().WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE lobstore_io_read_calls counter",
		"lobstore_io_read_calls 1",
		"# TYPE lobstore_io_size histogram",
		`lobstore_io_size_bucket{le="4"} 1`,
		`lobstore_io_size_bucket{le="+Inf"} 1`,
		"lobstore_io_size_sum 4",
		`lobstore_op_latency_us{op="read",clock="sim",quantile="0.99"} 2500`,
		`lobstore_op_latency_us{op="read",clock="wall",quantile="0.5"} 40`,
		`lobstore_op_latency_us_count{op="read",clock="sim"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Every exposition line is NAME VALUE or a comment.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}
