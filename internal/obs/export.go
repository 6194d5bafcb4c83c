package obs

import (
	"fmt"
	"io"
	"strings"
)

// promName sanitizes a dotted metric name into a Prometheus identifier.
func promName(name string) string {
	return strings.NewReplacer(".", "_", "-", "_").Replace(name)
}

// WriteProm renders the registry in the Prometheus text exposition format:
// counters as `lobstore_<name>`, fixed-bucket histograms as cumulative
// `_bucket`/`_sum`/`_count` families, and per-op latency HDRs as summaries
// with `op` and `clock` (sim|wall) labels in µs. Output ordering is
// deterministic.
func (m *Metrics) WriteProm(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, n := range m.sortedCounters() {
		pn := "lobstore_" + promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, m.counters[n]); err != nil {
			return err
		}
	}
	for _, h := range m.histograms() {
		if h.N == 0 {
			continue
		}
		pn := "lobstore_" + promName(h.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		var cum int64
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, b, cum); err != nil {
				return err
			}
		}
		cum += h.Counts[len(h.Bounds)]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			pn, cum, pn, h.Sum, pn, h.N); err != nil {
			return err
		}
	}
	for op := Op(0); op < numOps; op++ {
		if !m.created[op] {
			continue
		}
		clocks := []struct {
			label string
			h     *HDR
		}{{"sim", m.OpSim[op]}, {"wall", m.OpWall[op]}}
		for _, c := range clocks {
			if c.h.N() == 0 {
				continue
			}
			s := c.h.Summary()
			base := "lobstore_op_latency_us"
			labels := func(q string) string {
				return fmt.Sprintf("{op=%q,clock=%q,quantile=%q}", op.String(), c.label, q)
			}
			rows := []struct {
				q string
				v int64
			}{{"0.5", s.P50Us}, {"0.9", s.P90Us}, {"0.95", s.P95Us}, {"0.99", s.P99Us}, {"0.999", s.P999Us}}
			for _, r := range rows {
				if _, err := fmt.Fprintf(w, "%s%s %d\n", base, labels(r.q), r.v); err != nil {
					return err
				}
			}
			tail := fmt.Sprintf("{op=%q,clock=%q}", op.String(), c.label)
			if _, err := fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n",
				base, tail, c.h.Sum(), base, tail, s.N); err != nil {
				return err
			}
		}
	}
	return nil
}
