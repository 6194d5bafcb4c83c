package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of sorted by linear interpolation between
// ranks, or NaN when there are no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// relSpread is the distance between the quartiles as a share of the median:
// how far a value moves between windows of one run.
func relSpread(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	m := quantile(s, 0.5)
	if len(s) < 4 || m == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / math.Abs(m)
}

// class groups samples for latency reporting: every op, or one kind.
type class int

const (
	classOp class = iota // all kinds
	classRead
	classAppend
	classInsert
	classDelete
	numClasses
)

var classNames = [numClasses]string{"op", "read", "append", "insert", "delete"}

func classOf(k opKind) class { return class(k) + 1 }

// dist is the latency distribution of one class over a run, in microseconds.
// p50, p90 and p95 are medians over the run's windows, which a burst of noise
// in one window cannot move; the tail figures pool every sample.
type dist struct {
	n                   int
	p50, p90, p95       float64
	p50s, p90s, p95s    []float64 // per window
	p99, p999, max, mid float64   // pooled; mid is the pooled median
}

// summary condenses a run. Rates and fractions are medians over windows too.
type summary struct {
	attempted, failed int
	opsPerS, mbPerS   float64
	sloOkFrac         float64
	windows           map[string][]float64 // per-window values behind each median
	dists             [numClasses]dist
	kinds             [numKinds]int // successful ops by kind
	userWritten       int64         // payload bytes of acknowledged appends and inserts
	mutations         int
	chunksPerRead     float64
}

// summarize splits the run's seconds into nwin equal windows by completion
// time. Failed requests count as attempted and as missing the SLO, and are
// left out of rates and latencies.
func summarize(r *run, seconds float64, nwin int) summary {
	winLen := seconds * 1e9 / float64(nwin)
	type win struct {
		ok, attempted, slo int
		bytes              int64
		lat                [numClasses][]float64
	}
	wins := make([]win, nwin)
	var (
		s      = summary{windows: map[string][]float64{}}
		pooled [numClasses][]float64
		chunks int
	)
	for _, cs := range r.samples {
		for _, x := range cs {
			// A request that completes after the last window closed (an open
			// loop's drain) belongs to the window it was due in.
			w := &wins[min(nwin-1, int(float64(min(x.end, int64(seconds*1e9)-1))/winLen))]
			w.attempted++
			s.attempted++
			if !x.ok {
				s.failed++
				continue
			}
			lat := float64(x.end-x.start) / 1e3
			w.ok++
			if x.end-x.start <= sloNanos {
				w.slo++
			}
			if x.kind != opDelete {
				w.bytes += int64(x.bytes)
			}
			for _, c := range [2]class{classOp, classOf(x.kind)} {
				w.lat[c] = append(w.lat[c], lat)
				pooled[c] = append(pooled[c], lat)
			}
			s.kinds[x.kind]++
			if x.kind == opRead {
				chunks += int(x.chunks)
			} else {
				s.mutations++
				if x.kind != opDelete {
					s.userWritten += int64(x.bytes)
				}
			}
		}
	}
	for _, w := range wins {
		s.windows["ops_per_s"] = append(s.windows["ops_per_s"], float64(w.ok)/(winLen/1e9))
		s.windows["mb_per_s"] = append(s.windows["mb_per_s"], float64(w.bytes)/1e6/(winLen/1e9))
		if w.attempted > 0 {
			s.windows["slo_ok_frac"] = append(s.windows["slo_ok_frac"], float64(w.slo)/float64(w.attempted))
		}
		for c := range w.lat {
			if len(w.lat[c]) == 0 {
				continue
			}
			slices.Sort(w.lat[c])
			d := &s.dists[c]
			d.p50s = append(d.p50s, quantile(w.lat[c], 0.50))
			d.p90s = append(d.p90s, quantile(w.lat[c], 0.90))
			d.p95s = append(d.p95s, quantile(w.lat[c], 0.95))
		}
	}
	s.opsPerS = median(s.windows["ops_per_s"])
	s.mbPerS = median(s.windows["mb_per_s"])
	s.sloOkFrac = median(s.windows["slo_ok_frac"])
	for c := range s.dists {
		d, all := &s.dists[c], pooled[c]
		slices.Sort(all)
		d.n = len(all)
		d.p50, d.p90, d.p95 = median(d.p50s), median(d.p90s), median(d.p95s)
		d.mid, d.p99, d.p999 = quantile(all, 0.50), quantile(all, 0.99), quantile(all, 0.999)
		d.max = quantile(all, 1)
		s.windows[classNames[c]+"_p50_us"] = d.p50s
		s.windows[classNames[c]+"_p90_us"] = d.p90s
	}
	if n := s.kinds[opRead]; n > 0 {
		s.chunksPerRead = float64(chunks) / float64(n)
	}
	return s
}
