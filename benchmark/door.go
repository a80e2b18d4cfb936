package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro"
	"repro/internal/service"
)

// outcome is one query as its client saw it.
type outcome struct {
	latency time.Duration
	err     error // execution error, HTTP failure, or 429s exhausted
	// final is the dataset actually holding the user output (whole-job
	// reuse redirects it to the stored copy).
	final string

	simTime    time.Duration
	jobsRun    int
	jobsReused int
	rewrites   int
	stored     int
	rejected   int // 429 responses on the way in

	// serverWall is the engine's own submit→done time of the query
	// (Result.WallTime); the HTTP door's latency minus it is what the
	// front end added.
	serverWall time.Duration

	// query is the engine handle, kept by the traced run only: its
	// Result carries the JobStats and its Trace the span tree.
	query *restore.Query
}

// door is a workload's front door: how a client submits a script and
// waits for its result.
type door interface {
	run(client int, o op) outcome
	close() error
}

// directDoor submits through restore.Submit, as restore-cli does.
type directDoor struct {
	sys    *restore.System
	traced bool
}

func (d *directDoor) run(_ int, o op) outcome {
	start := time.Now()
	q, err := d.sys.Submit(context.Background(), o.script)
	if err != nil {
		return outcome{latency: time.Since(start), err: err}
	}
	res, err := q.Wait()
	out := outcome{latency: time.Since(start), err: err}
	if err != nil {
		return out
	}
	out.fill(res, o.output)
	if d.traced {
		out.query = q
	}
	return out
}

func (out *outcome) fill(res *restore.Result, userPath string) {
	out.final = userPath
	if p := res.FinalOutputs[userPath]; p != "" {
		out.final = p
	}
	out.simTime = res.SimTime
	out.jobsRun = res.JobsRun
	out.jobsReused = res.JobsReused
	out.rewrites = len(res.Rewrites)
	out.stored = len(res.Stored)
	out.serverWall = res.WallTime
}

func (d *directDoor) close() error { return d.sys.Close() }

// recordingEngine is the service.Engine the traced run serves: a plain
// pass-through to the System that remembers each query handle, so the
// benchmark can read the Result and Trace of a query it submitted over
// HTTP. The untraced run serves the System directly.
type recordingEngine struct {
	sys     *restore.System
	mu      sync.Mutex
	handles map[string]*restore.Query
}

func (e *recordingEngine) Submit(ctx context.Context, script string, opts ...restore.ExecOption) (service.QueryHandle, error) {
	q, err := e.sys.Submit(ctx, script, opts...)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.handles[q.ID()] = q
	e.mu.Unlock()
	return q, nil
}

func (e *recordingEngine) Stats() service.StatsBundle { return service.SystemStats(e.sys) }
func (e *recordingEngine) Close() error               { return e.sys.Close() }

func (e *recordingEngine) take(id string) *restore.Query {
	e.mu.Lock()
	defer e.mu.Unlock()
	q := e.handles[id]
	delete(e.handles, id)
	return q
}

// httpDoor drives service.Server.Handler() over a loopback httptest
// server: one session per client, each its own tenant.
type httpDoor struct {
	srv      *service.Server
	ts       *httptest.Server
	client   *http.Client
	sessions []string
	rec      *recordingEngine // nil unless traced
}

const (
	retry429      = 50
	retry429Delay = 20 * time.Millisecond
)

func newHTTPDoor(sys *restore.System, opts restore.Options, clients int, traced bool) (*httpDoor, error) {
	cfg := service.Config{DefaultOptions: opts, DefaultWorkers: workflowWorkers}
	d := &httpDoor{client: &http.Client{}}
	if traced {
		d.rec = &recordingEngine{sys: sys, handles: map[string]*restore.Query{}}
		d.srv = service.NewServerEngine(d.rec, cfg)
	} else {
		d.srv = service.NewServer(sys, cfg)
	}
	d.ts = httptest.NewServer(d.srv.Handler())
	for c := 0; c < clients; c++ {
		var sess struct {
			ID string `json:"id"`
		}
		code, err := d.post("/sessions", map[string]string{"tenant": fmt.Sprintf("tenant%d", c)}, &sess)
		if err != nil || code != http.StatusCreated {
			_ = d.close()
			return nil, fmt.Errorf("opening session %d: status %d: %v", c, code, err)
		}
		d.sessions = append(d.sessions, sess.ID)
	}
	return d, nil
}

func (d *httpDoor) post(path string, body, into any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := d.client.Post(d.ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, decodeBody(resp, into)
}

func (d *httpDoor) get(path string, into any) (int, error) {
	resp, err := d.client.Get(d.ts.URL + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, decodeBody(resp, into)
}

// decodeBody decodes a 2xx JSON body into v and drains anything else so
// the connection is reused.
func decodeBody(resp *http.Response, v any) error {
	if resp.StatusCode/100 == 2 && v != nil {
		return json.NewDecoder(resp.Body).Decode(v)
	}
	_, err := io.Copy(io.Discard, resp.Body)
	return err
}

func (d *httpDoor) run(client int, o op) outcome {
	var out outcome
	start := time.Now()
	var acc struct {
		ID string `json:"id"`
	}
	for {
		code, err := d.post("/queries", map[string]string{"session": d.sessions[client], "script": o.script}, &acc)
		if err == nil && code == http.StatusTooManyRequests && out.rejected < retry429 {
			out.rejected++
			time.Sleep(retry429Delay)
			continue
		}
		if err != nil || code != http.StatusAccepted {
			out.latency = time.Since(start)
			out.err = fmt.Errorf("POST /queries: status %d: %v", code, err)
			return out
		}
		break
	}
	var info service.QueryInfo
	code, err := d.get("/queries/"+acc.ID+"/result", &info)
	out.latency = time.Since(start)
	switch {
	case err != nil || code != http.StatusOK:
		out.err = fmt.Errorf("GET result of %s: status %d: %v", acc.ID, code, err)
	case info.State != service.StateDone || info.Result == nil:
		out.err = fmt.Errorf("query %s ended %s: %s", acc.ID, info.State, info.Error)
	}
	if out.err != nil {
		return out
	}
	r := info.Result
	out.final = o.output
	if p := r.FinalOutputs[o.output]; p != "" {
		out.final = p
	}
	out.simTime = msToDuration(r.SimTimeMs)
	out.serverWall = msToDuration(r.WallMs)
	out.jobsRun, out.jobsReused = r.JobsRun, r.JobsReused
	out.rewrites, out.stored = len(r.Rewrites), r.StoredEntries
	if d.rec != nil {
		out.query = d.rec.take(info.EngineID)
	}
	return out
}

// msToDuration inverts the wire form's float milliseconds exactly (a
// Duration below 2^53 ns survives the round trip).
func msToDuration(ms float64) time.Duration {
	return time.Duration(math.Round(ms * float64(time.Millisecond)))
}

// metrics scrapes GET /metrics, as a dashboard would.
func (d *httpDoor) metrics() (service.StatsBundle, error) {
	var b service.StatsBundle
	code, err := d.get("/metrics", &b)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /metrics: status %d", code)
	}
	return b, err
}

func (d *httpDoor) close() error {
	d.ts.Close()
	d.client.CloseIdleConnections()
	return d.srv.Close() // drains and closes the System
}
