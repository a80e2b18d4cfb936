package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/dfs"
)

// The suite asserts counts, never times: wall clock on a shared box is
// the benchmark's business, not the test's.

func quickRun(t *testing.T, sp *spec, traced bool) *result {
	t.Helper()
	rc := runConfig{seed: 1, seconds: defaultSeconds, quick: true, traced: traced, outDir: t.TempDir()}
	res, err := runWorkload(sp, rc)
	if err != nil {
		t.Fatalf("%s: %v", sp.name, err)
	}
	if !res.Correct {
		t.Fatalf("%s: run incorrect: %v", sp.name, res.Errors)
	}
	return res
}

// TestQuickRuns runs every workload three times in -quick mode on one
// seed — traced twice, untraced once with the traced run's single
// client — and checks that every counted metric repeats exactly, that
// the DFS wrapper and tracing change nothing the program computes, and
// that each workload exercises what it was built to exercise.
func TestQuickRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workflowWorkers))
	for _, sp := range workloads {
		t.Run(sp.name, func(t *testing.T) {
			a := quickRun(t, sp, true)
			b := quickRun(t, sp, true)
			for _, name := range exactOnOneClient {
				if a.PerLayer["mapreduce.cache.evictions"] > 0 && slices.Contains(cacheBound, name) {
					continue
				}
				if a.PerLayer[name] != b.PerLayer[name] {
					t.Errorf("%s differs between two runs of seed 1: %v vs %v", name, a.PerLayer[name], b.PerLayer[name])
				}
			}
			if exact(a.Counts) != exact(b.Counts) {
				t.Errorf("counts differ between two runs of seed 1:\n%+v\n%+v", a.Counts, b.Counts)
			}
			if x, y := dataPlaneBytes(a), dataPlaneBytes(b); x != y || x[1] == 0 {
				t.Errorf("data-plane DFS bytes (read, written) differ between two runs of seed 1: %v vs %v", x, y)
			}
			for _, d := range perLayer {
				if _, ok := a.PerLayer[d.Name]; !ok {
					t.Errorf("per-layer metric %s not reported", d.Name)
				}
			}
			if _, err := os.Stat(a.Spans); err != nil {
				t.Errorf("span file: %v", err)
			}

			// Behaviour transparency: same one-client stream, raw backend,
			// tracing off.
			one := *sp
			one.clients = 1
			u := quickRun(t, &one, false)
			for _, d := range endToEnd {
				if v, ok := u.EndToEnd[d.Name]; !ok || v == 0 {
					t.Errorf("end-to-end metric %s = %v, want reported and non-zero", d.Name, v)
				}
			}
			uc, ac := u.Counts, a.Counts
			if exact(uc) != exact(ac) || !near(uc.DFSRead, ac.DFSRead) || !near(uc.DFSWritten, ac.DFSWritten) {
				t.Errorf("traced and untraced runs computed different things:\nuntraced %+v\ntraced   %+v", uc, ac)
			}

			// Workload preconditions, beyond what runWorkload enforces.
			pl := a.PerLayer
			switch sp {
			case &engineScan:
				for _, name := range []string{"core.matcher.probes", "core.durable.appends", "core.durable.lease_ops", "core.storage.evictions"} {
					if pl[name] != 0 {
						t.Errorf("%s = %v on engine-scan, want 0", name, pl[name])
					}
				}
			case &coldStore:
				if pl["core.matcher.reuse_hit_ratio"] != 0 || pl["core.storage.evictions"] == 0 || pl["core.durable.appends"] == 0 {
					t.Errorf("cold-store: reuse %v, evictions %v, journal appends %v; want 0, >0, >0",
						pl["core.matcher.reuse_hit_ratio"], pl["core.storage.evictions"], pl["core.durable.appends"])
				}
			case &warmZipf:
				if pl["core.matcher.reuse_hit_ratio"] < 0.99 || pl["service.completed"] != float64(ac.Queries) || pl["service.rejected"] != 0 {
					t.Errorf("warm-zipf: reuse %v, completed %v of %d, rejected %v",
						pl["core.matcher.reuse_hit_ratio"], pl["service.completed"], ac.Queries, pl["service.rejected"])
				}
			case &appendRefresh:
				if want := float64(4 * ac.Appends); pl["core.refresh.refreshes"] != want || pl["core.refresh.failed"] != 0 || ac.Appends == 0 {
					t.Errorf("append-refresh: %v refreshes (%v failed) after %d appends, want %v",
						pl["core.refresh.refreshes"], pl["core.refresh.failed"], ac.Appends, want)
				}
			}
			if pl["oracle.checked"] == 0 || pl["oracle.mismatches"] != 0 {
				t.Errorf("oracle checked %v outputs, %v mismatches", pl["oracle.checked"], pl["oracle.mismatches"])
			}
		})
	}
}

// exact strips the tallies that are not: the raw backend's byte meters,
// which include journal and lease records and so wobble by a few bytes
// (see exactOnOneClient), and the cache tallies (see cacheBound; the
// exact cases are covered through the per-layer metrics).
func exact(c counts) counts {
	c.DFSRead, c.DFSWritten, c.CacheHits, c.CacheMisses = 0, 0, 0, 0
	return c
}

// near allows the few bytes of variable-width version numbers.
func near(a, b int64) bool {
	return a > 0 && float64(max(a-b, b-a)) <= 1e-4*float64(a)
}

// dataPlaneBytes sums the wrapper's read and committed bytes outside
// the journal and locks namespaces.
func dataPlaneBytes(r *result) [2]int64 {
	var out [2]int64
	for _, ns := range []string{nsInput, nsRestore, nsTmp, nsOutput} {
		out[0] += r.DFS[opRead+"/"+ns].Bytes
		out[1] += r.DFS[opWrite+"/"+ns].Bytes + r.DFS[opCAS+"/"+ns].Bytes
	}
	return out
}

func scripts(stream [][][]op) []string {
	var out []string
	for _, pass := range stream {
		for _, ops := range pass {
			for _, o := range ops {
				out = append(out, o.name+"\x00"+o.script)
			}
		}
	}
	return out
}

func TestSeedDrivesStream(t *testing.T) {
	for _, sp := range workloads {
		a := scripts(sp.stream(1, 3, 4*sp.group*sp.clients, sp.clients))
		b := scripts(sp.stream(1, 3, 4*sp.group*sp.clients, sp.clients))
		c := scripts(sp.stream(2, 3, 4*sp.group*sp.clients, sp.clients))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed generated different streams", sp.name)
		}
		// append-refresh's queries are fixed; its seed drives the data.
		if sp != &appendRefresh && reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same stream", sp.name)
		}
	}
	one, two := dfs.New(), dfs.New()
	for seed, fs := range map[int64]*dfs.FS{1: one, 2: two} {
		if _, _, err := appendRefresh.generate(fs, seed, true); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := digest(one, appendRefresh.inputPath)
	b, _ := digest(two, appendRefresh.inputPath)
	if a == b {
		t.Error("append-refresh: seeds 1 and 2 generated the same data")
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

// manifestJSON renders BENCHMARK.json from the metric and workload
// tables, in the contract's key order.
func manifestJSON() []byte {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundDef struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []boundDef    `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadDef{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, boundDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDef{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return buf.Bytes()
}

// TestManifest holds BENCHMARK.json to the metric and workload tables;
// go test ./benchmark -run TestManifest -update rewrites it from them.
func TestManifest(t *testing.T) {
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", manifestJSON(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifestJSON()) {
		t.Error("BENCHMARK.json differs from the tables; regenerate it with: go test ./benchmark -run TestManifest -update")
	}
	if n := len(endToEnd); n != 8 {
		t.Errorf("%d end-to-end metrics, want 8", n)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, name := range exactOnOneClient {
		if !seen[name] {
			t.Errorf("exactOnOneClient names unknown metric %s", name)
		}
	}
}

// plainBackend hides the built-in writer's CommittedVersion, standing
// in for a third-party backend without it.
type plainBackend struct{ dfs.Backend }

type plainWriter struct{ io.WriteCloser }

func (p plainBackend) Create(path string) io.WriteCloser {
	return plainWriter{p.Backend.Create(path)}
}

func TestMeteredWriterForwardsCommittedVersion(t *testing.T) {
	type versioned interface{ CommittedVersion() int64 }
	fs := dfs.New()
	m := newMeteredFS(fs, ".restore")
	w := m.Create("out/x/part-00000")
	cv, ok := w.(versioned)
	if !ok {
		t.Fatal("wrapper dropped CommittedVersion: write-through caching would turn off in traced runs")
	}
	if _, err := w.Write([]byte("a\tb\n")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := cv.CommittedVersion(), fs.Version("out/x"); got != want || got == 0 {
		t.Errorf("CommittedVersion = %d, dataset version %d", got, want)
	}
	if _, ok := newMeteredFS(plainBackend{fs}, "").Create("out/y/part-00000").(versioned); ok {
		t.Error("wrapper invented a CommittedVersion the backend's writer lacks")
	}
	cells, created := m.snapshot()
	if c := cells[[2]string{opWrite, nsOutput}]; c.Calls != 1 || c.Bytes != 4 || created != 1 {
		t.Errorf("write metered as %+v, %d created; want 1 call of 4 bytes, 1 created", c, created)
	}
	for path, want := range map[string]string{
		"pigmix/page_views/part-00000": nsInput,
		".restore/restore/w1q3/j1/op2": nsRestore,
		".restore/tmp/w1q3/t1":         nsTmp,
		".restore/repo/log/000001":     nsJournal,
		".restore/locks/abc":           nsLocks,
		".restore/pins/e1":             nsLocks,
		"out/L3":                       nsOutput,
		"restore/q1/j1":                nsOutput, // not under this system's root
	} {
		if got := m.classify(path); got != want {
			t.Errorf("classify(%q) = %s, want %s", path, got, want)
		}
	}
	if got := newMeteredFS(fs, "").classify("restore/q1/j1/op2"); got != nsRestore {
		t.Errorf("legacy layout: classify = %s, want %s", got, nsRestore)
	}
}

func TestSelfTimeAndPlacement(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	exec := &node{kind: "job.exec", start: msec(10), end: msec(90)}
	job := &node{kind: "job", start: msec(5), end: msec(95), children: []*node{exec}}
	root := &node{kind: "query", start: 0, end: msec(100), children: []*node{job}}
	// Two overlapping calls inside exec cover 20–50 once; one call in
	// the job but outside exec; one outside every child.
	for _, c := range [][2]int{{20, 40}, {30, 50}, {91, 94}, {96, 99}} {
		place(root, &node{kind: "dfs.write", start: msec(c[0]), end: msec(c[1]), leaf: true})
	}
	if n := len(exec.children); n != 2 {
		t.Fatalf("%d calls placed under job.exec, want 2", n)
	}
	if got := selfTime(exec); got != msec(50) {
		t.Errorf("job.exec self = %v, want 50ms (80ms minus the 30ms its calls cover)", got)
	}
	if got := selfTime(job); got != msec(7) {
		t.Errorf("job self = %v, want 7ms", got)
	}
	if got := selfTime(root); got != msec(7) {
		t.Errorf("query self = %v, want 7ms", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("iqrShare(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 11, 13], n=4) = [10, 11, 13]
	if got, want := iqrShare([]float64{13, 10, 11}), 3.0/11; got != want {
		t.Errorf("iqrShare(10,11,13) = %v, want %v", got, want)
	}
	lat := metricDef{Name: "query_p50_ms", Better: lower, Bound: 0.10}
	qps := metricDef{Name: "throughput_qps", Better: higher, Bound: 0.10}
	for _, tc := range []struct {
		d      metricDef
		a, b   []float64
		spread float64
		want   string
	}{
		{lat, []float64{10, 10.1, 9.9}, []float64{10.5, 10.4, 10.6}, 0.02, "ok"},
		{lat, []float64{10, 10.1, 9.9}, []float64{11.5, 11.4, 11.6}, 0.02, "worse"},
		{qps, []float64{100, 101, 99}, []float64{80, 81, 79}, 0.02, "worse"},
		{qps, []float64{100, 101, 99}, []float64{120, 121, 119}, 0.02, "ok"},
		{lat, []float64{10, 13, 8}, []float64{11, 9, 12}, 0.3, "unresolved"},
		{lat, []float64{10, 13, 11}, []float64{7, 6, 7.5}, 0.3, "ok"},
		{lat, []float64{10, 13, 11}, []float64{20, 16, 18}, 0.3, "worse"},
	} {
		if got := verdict(tc.d, tc.a, tc.b, tc.spread); got != tc.want {
			t.Errorf("verdict(%s, %v, %v, spread %v) = %s, want %s", tc.d.Name, tc.a, tc.b, tc.spread, got, tc.want)
		}
	}
}
