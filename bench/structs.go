package main

import (
	"errors"
	"slices"
	"time"

	"lobstore"
)

// The three storage structures on one fixed stream, memory backend, one
// client: I/O counts from the paper's cost model, exact and repeatable for a
// seed. The stream is edit-mix's first client followed by 4 KB appends, so
// every traced run reports every operation's cost whatever workload it ran.
const (
	structOps     = 600
	structAppends = 100
)

var structures = []struct {
	name string
	spec lobstore.ObjectSpec
}{
	{"eos", eosSpec},
	{"esm", lobstore.ObjectSpec{Engine: "esm", LeafPages: 4}},
	{"starburst", lobstore.ObjectSpec{Engine: "starburst"}},
}

func compareStructures(out map[string]float64, seed int64) error {
	w, err := findWorkload("edit-mix")
	if err != nil {
		return err
	}
	for _, s := range structures {
		if err := structureCosts(out, s.name, s.spec, w, seed); err != nil {
			return err
		}
	}
	return nil
}

func structureCosts(out map[string]float64, name string, spec lobstore.ObjectSpec, w workload, seed int64) (err error) {
	db, err := openStore(storeConfig("mem", "", false), w, spec, seed)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, db.Close()) }()
	h, err := openHandles(db, w)
	if err != nil {
		return err
	}
	var (
		g       = w.newGen(seed, 0)
		payload = make([]byte, 2*editMeanOp)
		n       [numKinds]int
		io      [numKinds]lobstore.Stats
		wall    [numKinds][]float64
	)
	for i := 0; i < structOps+structAppends; i++ {
		o := g.next()
		if i >= structOps {
			o = op{kind: opAppend, obj: 0, n: openOpSize, key: appendKey(seed, 0)}
		}
		fill(payload[:o.n], o.key, 0)
		t0 := time.Now()
		st, err := db.Measure(func() error {
			r, _ := h.exec(o, payload[:o.n])
			return r.err
		})
		if err != nil {
			return err
		}
		wall[o.kind] = append(wall[o.kind], float64(time.Since(t0))/1e3)
		n[o.kind]++
		io[o.kind].ReadCalls += st.ReadCalls
		io[o.kind].PagesWritten += st.PagesWritten
		io[o.kind].Time += st.Time
	}
	var (
		sim    time.Duration
		levels int
		util   lobstore.Utilization
	)
	for k := range n {
		kind := opKind(k).String()
		sim += io[k].Time
		if k == int(opRead) {
			out[name+".read_io_calls_per_op"] = float64(io[k].ReadCalls) / float64(n[k])
		} else {
			out[name+"."+kind+"_pages_written_per_op"] = float64(io[k].PagesWritten) / float64(n[k])
		}
		if name == "eos" {
			slices.Sort(wall[k])
			out["eos."+kind+"_cpu_p50_us"] = quantile(wall[k], 0.5)
		}
	}
	for _, obj := range h.objs[:editObjsPerClient] {
		l, err := lobstore.Inspect(obj)
		if err != nil {
			return err
		}
		levels = max(levels, l.IndexLevels)
		u := obj.Utilization()
		util.ObjectBytes += u.ObjectBytes
		util.DataPages += u.DataPages
		util.IndexPages += u.IndexPages
		util.PageSize = u.PageSize
	}
	out[name+".sim_ms_per_op"] = float64(sim.Microseconds()) / 1e3 / float64(structOps+structAppends)
	out[name+".index_levels"] = float64(levels)
	out[name+".util_ratio"] = util.Ratio()
	return nil
}
