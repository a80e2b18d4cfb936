package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/tuple"
)

// ---- fake engine: deterministic admission/lifecycle tests ----------

// fakeQuery completes when its gate closes (or its ctx dies).
type fakeQuery struct {
	id   string
	done chan struct{}
	mu   sync.Mutex
	res  *restore.Result
	err  error
	stop context.CancelFunc
}

func (q *fakeQuery) ID() string            { return q.id }
func (q *fakeQuery) Tag() string           { return "" }
func (q *fakeQuery) Tenant() string        { return "" }
func (q *fakeQuery) Cancel()               { q.stop() }
func (q *fakeQuery) Done() <-chan struct{} { return q.done }
func (q *fakeQuery) Wait() (*restore.Result, error) {
	<-q.done
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.res, q.err
}
func (q *fakeQuery) Status() restore.QueryStatus {
	return restore.QueryStatus{ID: q.id}
}
func (q *fakeQuery) Trace() *restore.TraceSnapshot {
	return &restore.TraceSnapshot{
		QueryID: q.id,
		WallMs:  1.5,
		Spans:   []*restore.TraceSpan{{Kind: "submit", WallMs: 1.5}},
	}
}

type fakeEngine struct {
	mu     sync.Mutex
	gate   chan struct{} // queries finish when this closes
	n      int
	closed bool
}

func newFakeEngine() *fakeEngine {
	return &fakeEngine{gate: make(chan struct{})}
}

func (e *fakeEngine) Submit(ctx context.Context, script string, opts ...restore.ExecOption) (QueryHandle, error) {
	e.mu.Lock()
	e.n++
	id := fmt.Sprintf("fq%d", e.n)
	gate := e.gate
	e.mu.Unlock()
	qctx, stop := context.WithCancel(ctx)
	q := &fakeQuery{id: id, done: make(chan struct{}), stop: stop}
	go func() {
		defer close(q.done)
		select {
		case <-gate:
			q.mu.Lock()
			q.res = &restore.Result{Result: &core.Result{QueryID: id, JobsRun: 1, JobsReused: 1}}
			q.mu.Unlock()
		case <-qctx.Done():
			q.mu.Lock()
			q.err = qctx.Err()
			q.mu.Unlock()
		}
	}()
	return q, nil
}

func (e *fakeEngine) release() { close(e.gate) }

// Stats returns canned, distinguishable values in every subsystem so
// /metrics field-plumbing regressions (a renamed JSON key, a dropped
// field) fail tests instead of silently serving zeros.
func (e *fakeEngine) Stats() StatsBundle {
	b := StatsBundle{}
	b.Storage.Entries = 7
	b.Storage.UsageBytes = 4096
	b.Storage.ClaimsGranted = 11
	b.Matcher.Probes = 23
	b.Matcher.Matches = 5
	b.BatchCache.Hits = 13
	b.BatchCache.Misses = 2
	b.BatchCache.UsedBytes = 512
	b.Delta.Refreshes = 4
	b.Delta.ColdBytesAvoided = 8192
	b.Latency.Query.Count = 9
	b.Latency.Query.P95Ms = 42
	b.Latency.Probe.Count = 23
	b.Latency.ClaimWait.Count = 1
	b.Latency.Refresh.Count = 4
	b.Memory = MemoryStats{HeapLiveBytes: 1 << 20, HeapGoalBytes: 2 << 20, DFSBytes: 65536}
	return b
}
func (e *fakeEngine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	return nil
}

// ---- HTTP helpers --------------------------------------------------

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

func getJSON(t *testing.T, client *http.Client, url string, out any) *http.Response {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, data, err)
		}
	}
	return resp
}

func newSession(t *testing.T, client *http.Client, base, tenant string) string {
	t.Helper()
	resp, data := postJSON(t, client, base+"/sessions", map[string]string{"tenant": tenant})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("session create: %d %s", resp.StatusCode, data)
	}
	var sess session
	if err := json.Unmarshal(data, &sess); err != nil {
		t.Fatalf("session body %q: %v", data, err)
	}
	return sess.ID
}

func submit(t *testing.T, client *http.Client, base string, req submitRequest) (string, *http.Response, []byte) {
	t.Helper()
	resp, data := postJSON(t, client, base+"/queries", req)
	var out struct {
		ID string `json:"id"`
	}
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("submit body %q: %v", data, err)
		}
	}
	return out.ID, resp, data
}

func waitResult(t *testing.T, client *http.Client, base, id string) QueryInfo {
	t.Helper()
	var info QueryInfo
	resp := getJSON(t, client, base+"/queries/"+id+"/result", &info)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: status %d", id, resp.StatusCode)
	}
	return info
}

// ---- real-System tests ---------------------------------------------

const eventsScript = `
A = load 'events' as (user, amount);
B = group A by user;
C = foreach B generate group, SUM(A.amount);
store C into '%s';
`

func newRealServer(t *testing.T, cfg Config) (*Server, string, *http.Client) {
	t.Helper()
	sys := restore.New(restore.DefaultConfig())
	rows := []tuple.Tuple{
		{"alice", int64(10)},
		{"bob", int64(5)},
		{"alice", int64(7)},
		{"carol", int64(2)},
	}
	if err := sys.WriteDataset("events", rows); err != nil {
		t.Fatalf("WriteDataset: %v", err)
	}
	if cfg.DefaultOptions == (restore.Options{}) {
		cfg.DefaultOptions = restore.Options{Reuse: true, KeepWholeJobs: true, Heuristic: restore.Aggressive}
	}
	srv := NewServer(sys, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close()
	})
	return srv, ts.URL, ts.Client()
}

// TestHTTPSubmitResultOutput drives one query end to end over HTTP:
// session, submit, blocking result, stored rows.
func TestHTTPSubmitResultOutput(t *testing.T) {
	_, base, client := newRealServer(t, Config{})
	sess := newSession(t, client, base, "acme")

	id, resp, data := submit(t, client, base, submitRequest{
		Session: sess,
		Script:  fmt.Sprintf(eventsScript, "out/totals"),
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	info := waitResult(t, client, base, id)
	if info.State != StateDone || info.Result == nil {
		t.Fatalf("query info = %+v, want done with result", info)
	}
	if info.Tenant != "acme" || info.Session != sess {
		t.Errorf("identity = %s/%s, want acme/%s", info.Tenant, info.Session, sess)
	}
	if info.Result.JobsRun != 1 {
		t.Errorf("JobsRun = %d, want 1", info.Result.JobsRun)
	}

	oresp, err := client.Get(base + "/queries/" + id + "/output?path=out/totals")
	if err != nil {
		t.Fatalf("output: %v", err)
	}
	defer oresp.Body.Close()
	body, _ := io.ReadAll(oresp.Body)
	if oresp.StatusCode != http.StatusOK {
		t.Fatalf("output status %d: %s", oresp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 3 {
		t.Fatalf("output rows = %d (%q), want 3 users", len(lines), body)
	}
}

// TestHTTPOutputOnlyStorePaths: /output serves the query's own STORE
// destinations and nothing else. An input dataset, another query's
// output and the repository's internals are 404s, though each exists.
func TestHTTPOutputOnlyStorePaths(t *testing.T) {
	_, base, client := newRealServer(t, Config{})
	sess := newSession(t, client, base, "acme")
	other, _, _ := submit(t, client, base, submitRequest{Session: sess, Script: fmt.Sprintf(eventsScript, "out/other")})
	waitResult(t, client, base, other)
	id, _, _ := submit(t, client, base, submitRequest{Session: sess, Script: fmt.Sprintf(eventsScript, "out/totals")})
	if info := waitResult(t, client, base, id); info.State != StateDone {
		t.Fatalf("query: %+v", info)
	}
	for path, want := range map[string]int{
		"out/totals":       http.StatusOK,
		"events":           http.StatusNotFound,
		"out/other":        http.StatusNotFound,
		".restore":         http.StatusNotFound,
		"out/totals/../..": http.StatusNotFound,
	} {
		resp, err := client.Get(base + "/queries/" + id + "/output?path=" + path)
		if err != nil {
			t.Fatalf("output %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("output?path=%s: %d %q, want %d", path, resp.StatusCode, body, want)
		}
	}
}

// TestHTTPOutputReplaced: /output serves the rows the query committed,
// and once a later query stores into the same path it answers 409
// rather than the later query's rows.
func TestHTTPOutputReplaced(t *testing.T) {
	_, base, client := newRealServer(t, Config{})
	sess := newSession(t, client, base, "acme")
	const script = "A = load 'events' as (user, amount);\nB = filter A by amount %s 6;\nstore B into 'out/x';\n"
	output := func(id string) (int, string) {
		t.Helper()
		resp, err := client.Get(base + "/queries/" + id + "/output?path=out/x")
		if err != nil {
			t.Fatalf("output: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	var ids []string
	for _, op := range []string{">", "<"} {
		id, _, _ := submit(t, client, base, submitRequest{Session: sess, Script: fmt.Sprintf(script, op)})
		if info := waitResult(t, client, base, id); info.State != StateDone {
			t.Fatalf("query %s: %+v", op, info)
		}
		ids = append(ids, id)
	}
	if code, body := output(ids[0]); code != http.StatusConflict || !strings.Contains(body, "replaced") {
		t.Errorf("replaced output: %d %q, want 409 naming the replacement", code, body)
	}
	if code, body := output(ids[1]); code != http.StatusOK || body != "bob\t5\ncarol\t2\n" {
		t.Errorf("current output: %d %q, want 200 with bob and carol", code, body)
	}
}

// TestHTTPRetainedQueryFrozen: the server keeps the last RetainDone
// finished queries, and each answers every endpoint, byte for byte, as
// it did when it finished, however many queries ran since. Each query
// stores its own path: /output answers 409 once a later query replaced
// a path (TestHTTPOutputReplaced).
func TestHTTPRetainedQueryFrozen(t *testing.T) {
	const retain, total = 3, 5
	_, base, client := newRealServer(t, Config{RetainDone: retain})
	sess := newSession(t, client, base, "acme")
	get := func(url string) string {
		t.Helper()
		resp, err := client.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
		}
		return string(body)
	}
	// capture reads every endpoint of a finished query; of /events it
	// keeps the terminal record.
	capture := func(id, path string) []string {
		q := base + "/queries/" + id
		events := strings.Split(strings.TrimSpace(get(q+"/events")), "\n")
		return []string{
			get(q), get(q + "/result"), get(q + "/trace"),
			get(q + "/output?path=" + path), events[len(events)-1],
		}
	}
	ids := make([]string, total)
	paths := make([]string, total)
	atFinish := make([][]string, total)
	for i := range ids {
		paths[i] = fmt.Sprintf("out/r%d", i)
		ids[i], _, _ = submit(t, client, base, submitRequest{Session: sess, Script: fmt.Sprintf(eventsScript, paths[i])})
		if info := waitResult(t, client, base, ids[i]); info.State != StateDone {
			t.Fatalf("query %d: %+v", i, info)
		}
		atFinish[i] = capture(ids[i], paths[i])
	}
	for i, id := range ids[:total-retain] {
		if resp := getJSON(t, client, base+"/queries/"+id, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("query %d (%s) past RetainDone: GET status %d, want 404", i, id, resp.StatusCode)
		}
	}
	endpoints := []string{"info", "result", "trace", "output", "events"}
	for i := total - retain; i < total; i++ {
		for k, body := range capture(ids[i], paths[i]) {
			if body != atFinish[i][k] {
				t.Errorf("query %d %s changed after later queries:\n at finish %s\n now       %s", i, endpoints[k], atFinish[i][k], body)
			}
		}
	}
}

// TestHTTPSubmitBadHeuristic400: an unparseable heuristic is rejected
// at submission with ParseHeuristic's error, which names the accepted
// values, not run under the default.
func TestHTTPSubmitBadHeuristic400(t *testing.T) {
	_, _, base, client := newFakeServer(t, Config{})
	_, resp, data := submit(t, client, base, submitRequest{Script: "x", Heuristic: "agressive"})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "agressive") {
		t.Fatalf("bad heuristic: %d %s, want 400 naming the heuristic", resp.StatusCode, data)
	}
	if want := "off, conservative, aggressive or no-heuristic"; !strings.Contains(string(data), want) {
		t.Fatalf("bad heuristic: 400 body %s does not name the accepted values (%s)", data, want)
	}
	var queries []QueryInfo
	getJSON(t, client, base+"/queries", &queries)
	if len(queries) != 0 {
		t.Fatalf("rejected request registered %d queries", len(queries))
	}
}

// countingReader counts the bytes a handler actually pulled from a body.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestHTTPOversizedBodyRefused: a body past maxBodyBytes is refused
// with 413 after reading no more than the bound — the server never
// buffers what a client chooses to send.
func TestHTTPOversizedBodyRefused(t *testing.T) {
	_, srv, _, _ := newFakeServer(t, Config{})
	for _, path := range []string{"/sessions", "/queries", "/cancel"} {
		script := strings.Repeat("a", 8*maxBodyBytes)
		body := &countingReader{r: strings.NewReader(`{"script":"` + script + `"}`)}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body answered %d %s, want 413", path, rec.Code, rec.Body)
		}
		if body.n > 2*maxBodyBytes {
			t.Errorf("%s: server read %d bytes of an oversized body (bound %d)", path, body.n, maxBodyBytes)
		}
	}
}

// TestHTTPCrossTenantReuse is the service-level ReStore pitch: tenant
// "analytics" warms the repository with the shared aggregation, tenant
// "reports" submits the same shape (different destination) and must be
// answered from the repository, visible per tenant in /metrics.
func TestHTTPCrossTenantReuse(t *testing.T) {
	_, base, client := newRealServer(t, Config{})
	sessA := newSession(t, client, base, "analytics")
	sessB := newSession(t, client, base, "reports")

	idA, _, _ := submit(t, client, base, submitRequest{
		Session: sessA, Script: fmt.Sprintf(eventsScript, "out/a"),
	})
	if info := waitResult(t, client, base, idA); info.State != StateDone {
		t.Fatalf("warm query: %+v", info)
	}

	idB, _, _ := submit(t, client, base, submitRequest{
		Session: sessB, Script: fmt.Sprintf(eventsScript, "out/b"),
	})
	info := waitResult(t, client, base, idB)
	if info.State != StateDone || info.Result == nil {
		t.Fatalf("reuse query: %+v", info)
	}
	if info.Result.JobsReused == 0 && len(info.Result.Rewrites) == 0 {
		t.Fatalf("tenant reports reused nothing: %+v", info.Result)
	}

	var bundle StatsBundle
	getJSON(t, client, base+"/metrics", &bundle)
	if bundle.Service == nil {
		t.Fatal("metrics carries no service stats")
	}
	rep := bundle.Service.Tenants["reports"]
	if rep == nil || rep.QueriesWithReuse == 0 {
		t.Fatalf("reports tenant counters = %+v, want reuse accounted", rep)
	}
	if rep.ReuseHitRatio() != 1 {
		t.Errorf("reports reuse-hit ratio = %v, want 1", rep.ReuseHitRatio())
	}
	if bundle.Service.Completed != 2 || bundle.Service.SessionsActive != 2 {
		t.Errorf("service totals = %+v, want 2 completed over 2 sessions", bundle.Service.TenantCounters)
	}
	if bundle.Storage.Entries == 0 {
		t.Errorf("storage stats empty in bundle: %+v", bundle.Storage)
	}
}

// TestHTTPEventsStream reads the NDJSON stream and checks it ends with
// a terminal record.
func TestHTTPEventsStream(t *testing.T) {
	_, base, client := newRealServer(t, Config{StreamInterval: 5 * time.Millisecond})
	sess := newSession(t, client, base, "acme")
	id, _, _ := submit(t, client, base, submitRequest{
		Session: sess, Script: fmt.Sprintf(eventsScript, "out/stream"),
	})

	resp, err := client.Get(base + "/queries/" + id + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var records []QueryInfo
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec QueryInfo
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		records = append(records, rec)
	}
	if len(records) == 0 {
		t.Fatal("stream delivered no records")
	}
	last := records[len(records)-1]
	if last.State != StateDone || last.Result == nil {
		t.Fatalf("terminal record = %+v, want done with result", last)
	}
}

// ---- fake-engine tests: backpressure, cancel, drain ---------------

func newFakeServer(t *testing.T, cfg Config) (*fakeEngine, *Server, string, *http.Client) {
	t.Helper()
	eng := newFakeEngine()
	srv := NewServerEngine(eng, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return eng, srv, ts.URL, ts.Client()
}

// TestHTTPOverQuota429 fills a tenant's in-flight and queue bounds and
// expects the next submit to be rejected with 429 + Retry-After while
// the engine still runs the admitted query.
func TestHTTPOverQuota429(t *testing.T) {
	eng, srv, base, client := newFakeServer(t, Config{
		MaxConcurrent: 1,
		DefaultQuota:  TenantQuota{Weight: 1, MaxInFlight: 1, MaxQueued: 2},
		RetryAfter:    3 * time.Second,
	})
	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		id, resp, data := submit(t, client, base, submitRequest{Tenant: "flood", Script: "x"})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, data)
		}
		ids = append(ids, id)
	}
	_, resp, _ := submit(t, client, base, submitRequest{Tenant: "flood", Script: "x"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", ra)
	}
	st := srv.Stats()
	if st.Service.Rejected != 1 || st.Service.Tenants["flood"].Rejected != 1 {
		t.Errorf("rejected counters = %+v", st.Service.TenantCounters)
	}

	eng.release()
	for _, id := range ids {
		if info := waitResult(t, client, base, id); info.State != StateDone {
			t.Fatalf("query %s = %+v, want done after release", id, info)
		}
	}
}

// TestHTTPCancelByTag cancels every live query sharing a tag — queued
// and running alike — and leaves others untouched.
func TestHTTPCancelByTag(t *testing.T) {
	eng, _, base, client := newFakeServer(t, Config{
		MaxConcurrent: 1,
		DefaultQuota:  TenantQuota{Weight: 1, MaxInFlight: 1, MaxQueued: 8},
	})
	var tagged []string
	for i := 0; i < 3; i++ {
		id, resp, data := submit(t, client, base, submitRequest{Tenant: "t", Script: "x", Tag: "nightly"})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, data)
		}
		tagged = append(tagged, id)
	}
	other, _, _ := submit(t, client, base, submitRequest{Tenant: "t", Script: "x", Tag: "adhoc"})

	resp, data := postJSON(t, client, base+"/cancel", map[string]string{"idOrTag": "nightly"})
	var out struct {
		Canceled int `json:"canceled"`
	}
	if err := json.Unmarshal(data, &out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d %s (%v)", resp.StatusCode, data, err)
	}
	if out.Canceled != 3 {
		t.Fatalf("canceled = %d, want 3", out.Canceled)
	}
	for _, id := range tagged {
		if info := waitResult(t, client, base, id); info.State != StateCanceled {
			t.Fatalf("tagged query %s = %+v, want canceled", id, info)
		}
	}
	eng.release()
	if info := waitResult(t, client, base, other); info.State != StateDone {
		t.Fatalf("untagged query = %+v, want done", info)
	}
}

// TestCloseDrains: Close rejects the queued query, lets the running
// one finish, and closes the engine; post-close submits get 503.
func TestCloseDrains(t *testing.T) {
	eng, srv, base, client := newFakeServer(t, Config{
		MaxConcurrent: 1,
		DefaultQuota:  TenantQuota{Weight: 1, MaxInFlight: 1, MaxQueued: 8},
	})
	running, _, _ := submit(t, client, base, submitRequest{Tenant: "t", Script: "x"})
	queued, _, _ := submit(t, client, base, submitRequest{Tenant: "t", Script: "x"})

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	// The queued query must be rejected promptly even while the
	// running one holds its slot.
	if info := waitResult(t, client, base, queued); info.State != StateCanceled {
		t.Fatalf("queued query after Close = %+v, want canceled", info)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v while a query was still running", err)
	case <-time.After(20 * time.Millisecond):
	}
	eng.release()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if info := waitResult(t, client, base, running); info.State != StateDone {
		t.Fatalf("running query after Close = %+v, want done", info)
	}
	eng.mu.Lock()
	engClosed := eng.closed
	eng.mu.Unlock()
	if !engClosed {
		t.Error("Close did not close the engine")
	}
	_, resp, _ := submit(t, client, base, submitRequest{Tenant: "t", Script: "x"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-close submit status = %d, want 503", resp.StatusCode)
	}
}

// TestSessionCloseCancelsQueries: deleting a session aborts its live
// queries but not another session's.
func TestSessionCloseCancelsQueries(t *testing.T) {
	eng, _, base, client := newFakeServer(t, Config{
		MaxConcurrent: 4,
		DefaultQuota:  TenantQuota{Weight: 1, MaxInFlight: 4, MaxQueued: 8},
	})
	sessA := newSession(t, client, base, "a")
	sessB := newSession(t, client, base, "b")
	qa, _, _ := submit(t, client, base, submitRequest{Session: sessA, Script: "x"})
	qb, _, _ := submit(t, client, base, submitRequest{Session: sessB, Script: "x"})

	req, _ := http.NewRequest(http.MethodDelete, base+"/sessions/"+sessA, nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("DELETE session: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE session status %d", resp.StatusCode)
	}
	if info := waitResult(t, client, base, qa); info.State != StateCanceled {
		t.Fatalf("session-a query = %+v, want canceled", info)
	}
	eng.release()
	if info := waitResult(t, client, base, qb); info.State != StateDone {
		t.Fatalf("session-b query = %+v, want done", info)
	}
}
