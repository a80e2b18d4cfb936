package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
)

// TestMetricsFieldPlumbing decodes /metrics as raw JSON and checks the
// fake engine's canned values arrive under the documented keys — a
// renamed field or a dropped subsystem fails here instead of serving
// zeros to dashboards.
func TestMetricsFieldPlumbing(t *testing.T) {
	_, _, base, client := newFakeServer(t, Config{})
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("metrics body: %v", err)
	}
	dig := func(key, sub string) float64 {
		t.Helper()
		raw, ok := doc[key]
		if !ok {
			t.Fatalf("metrics JSON missing %q", key)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("metrics[%s]: %v", key, err)
		}
		var v float64
		if err := json.Unmarshal(m[sub], &v); err != nil {
			t.Fatalf("metrics[%s][%s] = %s: %v", key, sub, m[sub], err)
		}
		return v
	}
	digHist := func(hist, field string) float64 {
		t.Helper()
		var lat map[string]map[string]json.RawMessage
		if err := json.Unmarshal(doc["latency"], &lat); err != nil {
			t.Fatalf("metrics latency: %v", err)
		}
		var v float64
		if err := json.Unmarshal(lat[hist][field], &v); err != nil {
			t.Fatalf("latency[%s][%s]: %v", hist, field, err)
		}
		return v
	}
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"storage.Entries", dig("storage", "Entries"), 7},
		{"storage.UsageBytes", dig("storage", "UsageBytes"), 4096},
		{"storage.ClaimsGranted", dig("storage", "ClaimsGranted"), 11},
		{"matcher.Probes", dig("matcher", "Probes"), 23},
		{"matcher.Matches", dig("matcher", "Matches"), 5},
		{"batchCache.Hits", dig("batchCache", "Hits"), 13},
		{"batchCache.UsedBytes", dig("batchCache", "UsedBytes"), 512},
		{"delta.refreshes", dig("delta", "refreshes"), 4},
		{"delta.coldBytesAvoided", dig("delta", "coldBytesAvoided"), 8192},
		{"latency.query.count", digHist("query", "count"), 9},
		{"latency.query.p95Ms", digHist("query", "p95Ms"), 42},
		{"latency.probe.count", digHist("probe", "count"), 23},
		{"latency.claimWait.count", digHist("claimWait", "count"), 1},
		{"latency.refresh.count", digHist("refresh", "count"), 4},
		{"memory.heap_live_bytes", dig("memory", "heap_live_bytes"), 1 << 20},
		{"memory.heap_goal_bytes", dig("memory", "heap_goal_bytes"), 2 << 20},
		{"memory.dfs_bytes", dig("memory", "dfs_bytes"), 65536},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestMetricsPrometheus checks ?format=prometheus serves a well-formed
// text exposition carrying the canned values.
func TestMetricsPrometheus(t *testing.T) {
	_, _, base, client := newFakeServer(t, Config{})
	resp, err := client.Get(base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE restore_query_latency_seconds histogram",
		"restore_query_latency_seconds_count 9",
		`restore_query_latency_seconds_bucket{le="+Inf"} 9`,
		"restore_probe_latency_seconds_count 23",
		"# TYPE restore_storage_entries gauge",
		"restore_storage_entries 7",
		"# TYPE restore_matcher_matches_total counter",
		"restore_matcher_matches_total 5",
		"restore_batch_cache_hits_total 13",
		"# TYPE restore_batch_cache_used_bytes gauge",
		"restore_batch_cache_used_bytes 512",
		"restore_storage_claims_granted_total 11",
		"restore_storage_claims_shared_total 0",
		"restore_matcher_full_traversals_total 0",
		"restore_delta_failed_total 0",
		"restore_delta_delta_bytes_read_total 0",
		"restore_delta_cold_bytes_avoided_total 8192",
		"restore_durability_dropped_appends_total 0",
		"restore_delta_refreshes_total 4",
		"restore_service_submitted_total 0",
		"# TYPE restore_memory_heap_live_bytes gauge",
		"restore_memory_heap_live_bytes 1048576",
		"restore_memory_heap_goal_bytes 2097152",
		"restore_memory_dfs_bytes 65536",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The matcher has no negative-containment cache, so no series for
	// it; the cache's bytes are restore_batch_cache_used_bytes.
	for _, gone := range []string{"negative_hits", "neg_cache", "restore_memory_batch_cache_bytes"} {
		if strings.Contains(text, gone) {
			t.Errorf("exposition still carries %q", gone)
		}
	}
	// Every sample line must be `name{labels} value` or `name value`.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestPrometheusCoversEveryField fills every number of a bundle with a
// distinct value and holds the exposition to exactly one sample per
// numeric JSON leaf that no prom:"-" tag leaves out: named restore_ plus
// the leaf's key path in snake case, typed gauge where the field's tag
// says so and counter (with _total) otherwise, carrying the leaf's
// value. A field added to any stats struct is held here unlisted.
func TestPrometheusCoversEveryField(t *testing.T) {
	b := StatsBundle{Service: &ServiceStats{}}
	tags := map[string]string{} // filled value → the field's prom tag
	var fill func(v reflect.Value, tag string)
	fill = func(v reflect.Value, tag string) {
		for i := 0; i < v.NumField(); i++ {
			f, fv := v.Type().Field(i), v.Field(i)
			ft := tag
			if ft != "-" {
				ft = f.Tag.Get("prom")
			}
			if fv.Kind() == reflect.Pointer && !fv.IsNil() {
				fv = fv.Elem()
			}
			n := strconv.Itoa(len(tags) + 1)
			switch {
			case !f.IsExported():
			case fv.Kind() == reflect.Struct:
				fill(fv, ft)
			case fv.CanInt():
				fv.SetInt(int64(len(tags) + 1))
				tags[n] = ft
			case fv.CanUint():
				fv.SetUint(uint64(len(tags) + 1))
				tags[n] = ft
			case fv.CanFloat():
				fv.SetFloat(float64(len(tags) + 1))
				tags[n] = ft
			}
		}
	}
	fill(reflect.ValueOf(&b).Elem(), "")

	// The expected series, from the JSON document.
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	snake := regexp.MustCompile(`([a-z0-9])([A-Z])`)
	want := map[string]string{} // name → value
	kinds := map[string]string{}
	var leaves func(prefix string, m map[string]any)
	leaves = func(prefix string, m map[string]any) {
		for k, v := range m {
			name := prefix + "_" + strings.ToLower(snake.ReplaceAllString(k, "${1}_${2}"))
			switch v := v.(type) {
			case map[string]any:
				leaves(name, v)
			case float64:
				val := strconv.FormatFloat(v, 'f', -1, 64)
				switch tags[val] {
				case "-":
				case "gauge":
					want[name], kinds[name] = val, "gauge"
				default:
					want[name+"_total"], kinds[name+"_total"] = val, "counter"
				}
			}
		}
	}
	leaves("restore", doc)

	var out strings.Builder
	b.WritePrometheus(&out)
	got, types := map[string]string{}, map[string]string{}
	var hist []string // the histogram families' names
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		f := strings.Fields(line)
		switch {
		case f[0] == "#" && f[3] == "histogram":
			hist = append(hist, f[2])
		case f[0] == "#":
			types[f[2]] = f[3]
		case slices.ContainsFunc(hist, func(h string) bool { return strings.HasPrefix(f[0], h+"_") }):
		default:
			if _, dup := got[f[0]]; dup {
				t.Errorf("series %s written twice", f[0])
			}
			got[f[0]] = f[1]
		}
	}
	for name, val := range want {
		if got[name] != val {
			t.Errorf("%s = %q, want %s", name, got[name], val)
		}
		if types[name] != kinds[name] {
			t.Errorf("# TYPE %s = %q, want %s", name, types[name], kinds[name])
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("series %s has no JSON leaf", name)
		}
	}
	t.Logf("%d series besides the histograms", len(got))
}

// TestSystemStatsMemory: on a real System the memory block carries the
// runtime's heap readings and the DFS's stored bytes, and the batch
// cache block the batches the query's job decoded into the cache.
func TestSystemStatsMemory(t *testing.T) {
	srv, base, client := newRealServer(t, Config{})
	id, resp, data := submit(t, client, base, submitRequest{
		Session: newSession(t, client, base, "acme"),
		Script:  fmt.Sprintf(eventsScript, "out/totals"),
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	if info := waitResult(t, client, base, id); info.State != StateDone {
		t.Fatalf("query info = %+v, want done", info)
	}
	runtime.GC() // heap_live_bytes is what the last GC found: 0 before the first
	m := srv.Stats().Memory
	if m.HeapLiveBytes == 0 || m.HeapGoalBytes == 0 || m.DFSBytes == 0 {
		t.Fatalf("memory = %+v, want every reading nonzero", m)
	}
	if used := srv.Stats().BatchCache.UsedBytes; used == 0 {
		t.Fatal("batch cache holds no bytes after a query decoded its input")
	}
}

// TestQueryTraceEndpoint runs a real query and checks /queries/{id}/trace
// returns its span tree, rooted at a submit span with a compile child.
func TestQueryTraceEndpoint(t *testing.T) {
	_, base, client := newRealServer(t, Config{})
	sess := newSession(t, client, base, "acme")
	id, _, _ := submit(t, client, base, submitRequest{
		Session: sess, Script: fmt.Sprintf(eventsScript, "out/traced"),
	})
	if info := waitResult(t, client, base, id); info.State != StateDone {
		t.Fatalf("query: %+v", info)
	}

	var tr restore.TraceSnapshot
	getJSON(t, client, base+"/queries/"+id+"/trace", &tr)
	if len(tr.Spans) != 1 || tr.Spans[0].Kind != "submit" {
		t.Fatalf("trace roots = %+v, want one submit span", tr.Spans)
	}
	kinds := map[string]int{}
	var walk func(sp *restore.TraceSpan)
	walk = func(sp *restore.TraceSpan) {
		kinds[sp.Kind]++
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(tr.Spans[0])
	for _, want := range []string{"compile", "job", "probe", "job.exec", "store.commit"} {
		if kinds[want] == 0 {
			t.Errorf("trace has no %q span (kinds = %v)", want, kinds)
		}
	}

	// Unknown ID is a 404, not a panic or empty document.
	resp, err := client.Get(base + "/queries/nope/trace")
	if err != nil {
		t.Fatalf("trace GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown-query trace status = %d, want 404", resp.StatusCode)
	}
}

// TestEventsTerminalTrace checks the NDJSON stream's terminal record —
// and only the terminal record — carries the trace.
func TestEventsTerminalTrace(t *testing.T) {
	_, base, client := newRealServer(t, Config{StreamInterval: 5 * time.Millisecond})
	sess := newSession(t, client, base, "acme")
	id, _, _ := submit(t, client, base, submitRequest{
		Session: sess, Script: fmt.Sprintf(eventsScript, "out/evtrace"),
	})
	resp, err := client.Get(base + "/queries/" + id + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	var records []QueryInfo
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec QueryInfo
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		records = append(records, rec)
	}
	if len(records) == 0 {
		t.Fatal("no records")
	}
	for _, rec := range records[:len(records)-1] {
		if rec.Trace != nil {
			t.Errorf("mid-flight record carries a trace (state %s)", rec.State)
		}
	}
	last := records[len(records)-1]
	if last.State != StateDone || last.Trace == nil || len(last.Trace.Spans) == 0 {
		t.Fatalf("terminal record = state %s trace %v, want done with trace", last.State, last.Trace)
	}
}

// TestSlowQueryLog sets a zero-ish threshold so every query counts as
// slow and checks the ring serves the finished query with its trace.
func TestSlowQueryLog(t *testing.T) {
	_, base, client := newRealServer(t, Config{SlowQueryThreshold: time.Nanosecond})
	sess := newSession(t, client, base, "acme")
	id, _, _ := submit(t, client, base, submitRequest{
		Session: sess, Script: fmt.Sprintf(eventsScript, "out/slow"),
	})
	if info := waitResult(t, client, base, id); info.State != StateDone {
		t.Fatalf("query: %+v", info)
	}
	var slow []SlowQuery
	getJSON(t, client, base+"/debug/slow", &slow)
	if len(slow) != 1 {
		t.Fatalf("slow log has %d records, want 1", len(slow))
	}
	rec := slow[0]
	if rec.ID != id || rec.State != StateDone || rec.WallMs <= 0 || rec.Trace == nil {
		t.Fatalf("slow record = %+v, want %s done with trace", rec, id)
	}
}

// TestSlowRingWraps checks the bounded ring drops oldest-first and
// snapshots newest-first.
func TestSlowRingWraps(t *testing.T) {
	r := newSlowRing(3)
	for i := 0; i < 5; i++ {
		r.add(SlowQuery{ID: fmt.Sprintf("q%d", i)})
	}
	got := r.snapshot()
	if len(got) != 3 {
		t.Fatalf("ring holds %d, want 3", len(got))
	}
	for i, want := range []string{"q4", "q3", "q2"} {
		if got[i].ID != want {
			t.Errorf("snapshot[%d] = %s, want %s", i, got[i].ID, want)
		}
	}
}
