package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/exp"
	"repro/internal/pigmix"
)

// result is one run of one workload, as written to
// <out>/result_<workload>[_trace].json.
type result struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
	Traced     bool    `json:"traced"`
	Clients    int     `json:"clients"`
	Passes     int     `json:"passes"`
	PerPass    int     `json:"queries_per_pass"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	GoVersion  string  `json:"go_version"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`

	// EndToEnd is set by untraced runs, PerLayer by traced ones.
	EndToEnd metrics `json:"end_to_end,omitempty"`
	PerLayer metrics `json:"per_layer,omitempty"`
	// Info carries what the contract's metric lists leave out:
	// failed_ratio and repo_bytes_per_input_byte (both may be 0, which
	// an end-to-end metric may not), the pooled percentiles and each
	// timing metric's per-pass minimum and maximum.
	Info metrics `json:"info"`

	SetupS   []float64   `json:"setup_s,omitempty"`
	PassStat []passStats `json:"pass_stats"`
	Counts   counts      `json:"counts"`
	// DFS is the wrapper's op-class × namespace-class matrix and SelfMs
	// the span self time summed by kind (traced only).
	DFS    map[string]cell    `json:"dfs,omitempty"`
	SelfMs map[string]float64 `json:"self_ms_by_kind,omitempty"`
	Spans  string             `json:"span_file,omitempty"`
	Errors []string           `json:"errors,omitempty"`
}

// runWorkload runs one workload in this process.
func runWorkload(sp *spec, rc runConfig) (*result, error) {
	clients := rc.clientCount(sp)
	perPass := rc.perPass(sp, clients)
	stream := sp.stream(rc.seed, rc.passes(), perPass, clients)
	res := &result{
		Workload: sp.name, Seed: rc.seed, Seconds: rc.seconds, Quick: rc.quick, Traced: rc.traced,
		Clients: clients, Passes: rc.passes(), PerPass: perPass,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	var ph *phase
	var err error
	if rc.traced {
		ph, err = runTraced(sp, rc, stream, res)
	} else {
		ph, err = runUntraced(sp, rc, stream, res)
	}
	if err != nil {
		return nil, err
	}
	c := ph.counts
	ph.errs = append(ph.errs, preconditions(sp, c)...)
	res.PassStat, res.Counts, res.Errors = ph.passes, c, ph.errs
	res.Attempted, res.Failed = c.Queries, c.Failed+c.Mismatches
	res.Correct = len(ph.errs) == 0
	res.Info = infoMetrics(ph)
	return res, nil
}

// runUntraced measures the end-to-end metrics: raw backend, tracing
// off, the spec's client count. The workload is set up setupRepeats
// times — once before the measured phase, the rest after it, so their
// garbage is not in the peak RSS — and setup_s is the median.
func runUntraced(sp *spec, rc runConfig, stream [][][]op, res *result) (*phase, error) {
	t := time.Now()
	in, err := setup(sp, rc)
	if err != nil {
		return nil, err
	}
	res.SetupS = []float64{time.Since(t).Seconds()}
	ph := in.runPhase(stream)
	in.close()
	for i := 1; i < setupRepeats && !rc.quick; i++ {
		runtime.GC()
		t := time.Now()
		again, err := setup(sp, rc)
		if err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, time.Since(t).Seconds())
		again.close()
	}
	if err := verify(sp, rc, stream, ph); err != nil {
		return nil, err
	}
	res.EndToEnd = endToEndMetrics(ph, res.SetupS)
	return ph, nil
}

// runTraced measures the per-layer metrics: one client, tracing on,
// the metering DFS wrapper installed. An untraced first pass over the
// same stream gives the base of trace.overhead_ratio. It runs twice, on
// fresh instances, and the first reading is thrown away: the first
// phase of a process grows the heap and pays for it, and the traced
// phase, running later, would look cheaper than no tracing at all.
func runTraced(sp *spec, rc runConfig, stream [][][]op, res *result) (*phase, error) {
	var base float64
	if !rc.quick {
		one, ref := *sp, rc
		one.clients, ref.traced = 1, false
		for i := 0; i < 2; i++ {
			in, err := setup(&one, ref)
			if err != nil {
				return nil, err
			}
			base = in.runPhase(stream[:1]).passes[0].LatSumMs
			in.close()
			runtime.GC()
		}
	}
	in, err := setup(sp, rc)
	if err != nil {
		return nil, err
	}
	defer in.close()
	ph := in.runPhase(stream)
	lp := ph.layers
	if err := lp.recoverProbe(lastQuery(stream)); err != nil {
		return nil, err
	}
	if err := lp.replayCompile(stream); err != nil {
		return nil, err
	}
	if err := lp.replayCodec(); err != nil {
		return nil, err
	}
	if err := verify(sp, rc, stream, ph); err != nil {
		return nil, err
	}
	lp.m["trace.overhead_ratio"] = ratio(ph.passes[0].LatSumMs, base)
	lp.m["oracle.checked"] = float64(ph.counts.Checked)
	lp.m["oracle.mismatches"] = float64(ph.counts.Mismatches)
	for _, d := range perLayer {
		if _, ok := lp.m[d.Name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
	}
	res.PerLayer = lp.m
	res.DFS = map[string]cell{}
	for k, c := range lp.cells {
		res.DFS[k[0]+"/"+k[1]] = c
	}
	res.SelfMs = map[string]float64{}
	for k, d := range lp.kindSelf {
		res.SelfMs[k] = ms(d)
	}
	if res.Spans, err = lp.writeSpans(); err != nil {
		return nil, err
	}
	return ph, nil
}

func lastQuery(stream [][][]op) op {
	var last op
	for _, pass := range stream {
		for _, ops := range pass {
			for _, o := range ops {
				if o.kind == opQuery {
					last = o
				}
			}
		}
	}
	return last
}

// preconditions checks that the workload exercised what it was built
// to exercise; a violation makes the run incorrect.
func preconditions(sp *spec, c counts) []string {
	var errs []string
	reuse := float64(c.Reusing) / float64(max(c.Queries, 1))
	switch sp.name {
	case engineScan.name:
		if c.Probes != 0 {
			errs = append(errs, fmt.Sprintf("engine-scan: %d matcher probes, want 0 (reuse is off)", c.Probes))
		}
	case coldStore.name:
		if c.Reusing != 0 {
			errs = append(errs, fmt.Sprintf("cold-store: %d queries reused, want 0 (every plan is novel)", c.Reusing))
		}
	case warmZipf.name:
		if reuse < 0.99 {
			errs = append(errs, fmt.Sprintf("warm-zipf: reuse hit ratio %.3f, want ≥ 0.99", reuse))
		}
	case appendRefresh.name:
		if reuse < 0.99 {
			errs = append(errs, fmt.Sprintf("append-refresh: reuse hit ratio %.3f, want ≥ 0.99", reuse))
		}
		if want := int64(c.Appends * len(pigmix.NetTrafficSuite)); c.Refreshes != want || c.RefreshFails != 0 {
			errs = append(errs, fmt.Sprintf("append-refresh: %d refreshes (%d failed), want %d (0 failed)", c.Refreshes, c.RefreshFails, want))
		}
	}
	return errs
}

// infoMetrics are the informational numbers beside the contract's lists.
func infoMetrics(ph *phase) metrics {
	m := metrics{
		"failed_ratio":    failedRatio(ph.counts),
		"measured_s":      ph.wall.Seconds(),
		"pooled_p50_ms":   exp.Percentile(ph.lat, 50),
		"pooled_p95_ms":   exp.Percentile(ph.lat, 95),
		"pooled_samples":  float64(len(ph.lat)),
		"input_bytes":     float64(ph.inputs),
		"repo_bytes":      float64(ph.usage),
		"append_ms_total": 0,
	}
	if ph.inputs > 0 {
		m["repo_bytes_per_input_byte"] = float64(ph.usage) / float64(ph.inputs)
	}
	var wall float64
	var p50, p95, qps []float64
	for _, ps := range ph.passes {
		wall += ps.WallS
		m["append_ms_total"] += ps.AppendMs
		p50, p95, qps = append(p50, ps.P50Ms), append(p95, ps.P95Ms), append(qps, ps.QPS)
	}
	for name, vs := range map[string][]float64{"p50_ms": p50, "p95_ms": p95, "qps": qps} {
		if len(vs) > 0 {
			m["pass_min_"+name], m["pass_max_"+name] = slices.Min(vs), slices.Max(vs)
		}
	}
	m["pooled_qps"] = ratio(float64(ph.counts.Queries), wall)
	return m
}

// print writes the human-readable report and, as the last line, the
// driver's JSON object.
func (r *result) print(w io.Writer) {
	mode, defs, vals := "untraced", endToEnd, r.EndToEnd
	if r.Traced {
		mode, defs, vals = "traced", perLayer, r.PerLayer
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  %d client(s)  %d passes × %d queries  GOMAXPROCS %d\n",
		r.Workload, r.Seed, mode, r.Clients, r.Passes, r.PerPass, r.GOMAXPROCS)
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  (%s %.6g)\n", k, r.Info[k])
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "ERROR %s\n", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite floats and strings
	}
	fmt.Fprintf(w, "%s\n", data)
}

// resultSet gathers the runs of several workloads (results.json): per
// workload, the untraced run's record with the traced run's per-layer
// view folded in.
type resultSet struct {
	Workloads map[string]*result `json:"workloads"`
}

func (s *resultSet) merge(r *result) {
	have := s.Workloads[r.Workload]
	switch {
	case have == nil:
		s.Workloads[r.Workload] = r
	case r.Traced:
		have.PerLayer, have.DFS, have.SelfMs, have.Spans = r.PerLayer, r.DFS, r.SelfMs, r.Spans
		have.Correct = have.Correct && r.Correct
		have.Errors = append(have.Errors, r.Errors...)
	default:
		r.PerLayer, r.DFS, r.SelfMs, r.Spans = have.PerLayer, have.DFS, have.SelfMs, have.Spans
		r.Correct = have.Correct && r.Correct
		r.Errors = append(r.Errors, have.Errors...)
		s.Workloads[r.Workload] = r
	}
}

// readResults reads a results.json (a set) or a single result file.
func readResults(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if set.Workloads != nil {
		return &set, nil
	}
	var one result
	if err := json.Unmarshal(data, &one); err != nil || one.Workload == "" {
		return nil, fmt.Errorf("%s: neither a result set nor a result", path)
	}
	return &resultSet{Workloads: map[string]*result{one.Workload: &one}}, nil
}

func readResult(path string) (*result, error) {
	set, err := readResults(path)
	if err != nil {
		return nil, err
	}
	for _, r := range set.Workloads {
		return r, nil
	}
	return nil, fmt.Errorf("%s: empty", path)
}
