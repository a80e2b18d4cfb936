// Package service is the multi-tenant serving front-end of the ReStore
// reproduction: a long-lived HTTP server multiplexing many tenants'
// Pig Latin queries onto one restore.System, so sublanguage-level reuse
// happens across users, not just across the calls of one process.
//
// The server exposes:
//
//   - Sessions: POST /sessions binds a client to a tenant identity;
//     DELETE /sessions/{id} closes it and cancels its live queries.
//   - Queries: POST /queries submits a script (or a PigMix query by
//     name) through a weighted fair-share admission queue and returns a
//     query ID immediately; GET /queries/{id} snapshots it, GET
//     /queries/{id}/events streams NDJSON status until completion, GET
//     /queries/{id}/result blocks for the outcome, GET
//     /queries/{id}/output returns the rows of one of its STOREs, and
//     DELETE /queries/{id} (or POST /cancel with an ID or tag) aborts
//     it. A finished query stays inspectable as a frozen record
//     (Config.RetainDone).
//   - Metrics: GET /metrics serializes the full StatsBundle — storage,
//     matcher, durability and lease stats plus the service's own
//     per-tenant admission and reuse counters.
//
// Admission sits in front of System.Submit and bounds the queries
// served at once (Config.MaxConcurrent): each tenant has a weight, an
// in-flight cap and a bounded waiting queue. Saturation degrades into weighted fair sharing (a flooding
// tenant cannot starve a light one), and a tenant over its queue bound
// gets an immediate 429 with Retry-After — explicit backpressure
// instead of unbounded accept. Close drains: waiting queries are
// rejected, running ones finish, then the System is closed.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/pigmix"
	"repro/internal/tuple"
)

// Config configures a Server.
type Config struct {
	// MaxConcurrent caps admitted-and-running queries across all
	// tenants (the global slot pool the fair-share scheduler hands
	// out). Zero means 16.
	MaxConcurrent int
	// DefaultQuota applies to tenants absent from Quotas.
	DefaultQuota TenantQuota
	// Quotas overrides per-tenant weights and bounds.
	Quotas map[string]TenantQuota
	// DefaultOptions is the ReStore configuration submitted queries
	// start from; per-request fields (reuse, heuristic, …) override it.
	DefaultOptions restore.Options
	// DefaultWorkers bounds each query's concurrent jobs when the
	// request doesn't pick its own (zero means the engine default).
	DefaultWorkers int
	// RetryAfter is the backoff hint attached to 429 responses (zero
	// means 1s).
	RetryAfter time.Duration
	// StreamInterval is the status-poll period of /queries/{id}/events
	// (zero means 100ms).
	StreamInterval time.Duration
	// RetainDone bounds how many finished queries stay inspectable via
	// GET /queries/{id}; the oldest are forgotten beyond it (zero means
	// 4096). A finished query keeps only its frozen wire record, its
	// trace snapshot and its STORE paths with the versions it committed,
	// about 2 KB untraced, and /output serves only those paths, and
	// only while they hold those versions.
	RetainDone int
	// SlowQueryThreshold, when positive, makes the server retain the
	// trace of every finished query whose wall time met the threshold
	// in a bounded ring served at GET /debug/slow (restore-server
	// -slow-query-ms).
	SlowQueryThreshold time.Duration
	// SlowRingSize bounds the slow-query ring (zero means 64).
	SlowRingSize int
}

func (c Config) resolved() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 16
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.StreamInterval <= 0 {
		c.StreamInterval = 100 * time.Millisecond
	}
	if c.RetainDone <= 0 {
		c.RetainDone = 4096
	}
	if c.SlowRingSize <= 0 {
		c.SlowRingSize = 64
	}
	return c
}

// QueryHandle is the slice of *restore.Query the server drives; the
// indirection lets admission and lifecycle tests substitute a
// controllable engine.
type QueryHandle interface {
	ID() string
	Tag() string
	Tenant() string
	Cancel()
	Done() <-chan struct{}
	Wait() (*restore.Result, error)
	Status() restore.QueryStatus
	// Trace snapshots the query's span trace; nil when tracing is
	// disabled for the query.
	Trace() *restore.TraceSnapshot
}

// Engine is the submission surface the server serves; *restore.System
// satisfies it through NewServer's adapter.
type Engine interface {
	Submit(ctx context.Context, script string, opts ...restore.ExecOption) (QueryHandle, error)
	Stats() StatsBundle
	Close() error
}

// systemEngine adapts *restore.System to Engine.
type systemEngine struct{ sys *restore.System }

func (e systemEngine) Submit(ctx context.Context, script string, opts ...restore.ExecOption) (QueryHandle, error) {
	q, err := e.sys.Submit(ctx, script, opts...)
	if err != nil {
		return nil, err
	}
	return q, nil
}
func (e systemEngine) Stats() StatsBundle { return SystemStats(e.sys) }
func (e systemEngine) Close() error       { return e.sys.Close() }

// The service-level query lifecycle states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Server multiplexes tenants over one System. Create with NewServer,
// mount Handler on an http.Server, Close to drain.
type Server struct {
	eng Engine
	cfg Config
	adm *admitter

	mu       sync.Mutex
	closed   bool
	sessions map[string]*session
	queries  map[string]*servedQuery
	doneLog  []string // finished query IDs, oldest first, for retention
	nsess    int64
	nquery   int64
	meter    *serviceMeter
	sessMade int64
	slow     *slowRing

	drain sync.WaitGroup
}

// NewServer serves sys under cfg.
func NewServer(sys *restore.System, cfg Config) *Server {
	return NewServerEngine(systemEngine{sys}, cfg)
}

// NewServerEngine is NewServer over an explicit Engine (tests).
func NewServerEngine(eng Engine, cfg Config) *Server {
	cfg = cfg.resolved()
	return &Server{
		eng:      eng,
		cfg:      cfg,
		adm:      newAdmitter(cfg.MaxConcurrent, cfg.DefaultQuota, cfg.Quotas),
		sessions: map[string]*session{},
		queries:  map[string]*servedQuery{},
		meter:    newServiceMeter(),
		slow:     newSlowRing(cfg.SlowRingSize),
	}
}

// quotaFor resolves the effective quota of a tenant.
func (s *Server) quotaFor(tenant string) TenantQuota {
	if q, ok := s.cfg.Quotas[tenant]; ok {
		return q.resolved()
	}
	return s.cfg.DefaultQuota.resolved()
}

// Close drains the server: new submissions are refused, waiting
// queries are rejected (canceled), running queries finish, and the
// underlying System is closed. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if already {
		return nil
	}
	s.adm.close()
	s.drain.Wait()
	return s.eng.Close()
}

// CancelAll aborts every live (queued or running) query, returning how
// many were cancelled — the hard half of a graceful shutdown.
func (s *Server) CancelAll() int {
	s.mu.Lock()
	live := make([]*servedQuery, 0, len(s.queries))
	for _, sq := range s.queries {
		live = append(live, sq)
	}
	s.mu.Unlock()
	n := 0
	for _, sq := range live {
		if sq.cancel() {
			n++
		}
	}
	return n
}

// session binds a client to a tenant identity.
type session struct {
	ID      string    `json:"id"`
	Tenant  string    `json:"tenant"`
	Created time.Time `json:"created"`
}

// servedQuery is one submitted query's service-side record. While the
// query is live it holds the engine's handle; finish freezes it.
type servedQuery struct {
	id      string
	tenant  string
	session string
	tag     string
	start   time.Time

	mu       sync.Mutex
	stop     context.CancelFunc // aborts the admission wait or the query; nil once finished
	state    string
	q        QueryHandle     // non-nil from submission to the engine until finished
	outputs  restore.Outputs // once finished, its STORE paths and versions, for /output
	err      error
	finished time.Time
	final    *QueryInfo             // what info serves once finished
	tr       *restore.TraceSnapshot // what trace serves once finished
	done     chan struct{}
}

// cancel aborts the query if it is still live, reporting whether it
// was.
func (sq *servedQuery) cancel() bool {
	sq.mu.Lock()
	live := sq.state == StateQueued || sq.state == StateRunning
	q, stop := sq.q, sq.stop
	sq.mu.Unlock()
	if !live {
		return false
	}
	stop()
	if q != nil {
		q.Cancel()
	}
	return true
}

// RewriteInfo is one applied reuse, in wire form.
type RewriteInfo struct {
	EntryID   string `json:"entry"`
	Path      string `json:"path"`
	WholeJob  bool   `json:"wholeJob"`
	OpsBefore int    `json:"opsBefore"`
	OpsAfter  int    `json:"opsAfter"`
}

// ResultSummary is a finished query's outcome, in wire form.
type ResultSummary struct {
	SimTimeMs     float64           `json:"simTimeMs"`
	WallMs        float64           `json:"wallMs"`
	JobsRun       int               `json:"jobsRun"`
	JobsReused    int               `json:"jobsReused"`
	Rewrites      []RewriteInfo     `json:"rewrites,omitempty"`
	StoredEntries int               `json:"storedEntries"`
	FinalOutputs  map[string]string `json:"finalOutputs,omitempty"`
}

func summarize(res *restore.Result) *ResultSummary {
	if res == nil || res.Result == nil {
		return nil
	}
	out := &ResultSummary{
		SimTimeMs:     float64(res.SimTime) / float64(time.Millisecond),
		WallMs:        float64(res.WallTime) / float64(time.Millisecond),
		JobsRun:       res.JobsRun,
		JobsReused:    res.JobsReused,
		StoredEntries: len(res.Stored),
		FinalOutputs:  res.FinalOutputs,
	}
	for _, ev := range res.Rewrites {
		out.Rewrites = append(out.Rewrites, RewriteInfo{
			EntryID:   ev.EntryID,
			Path:      ev.Path,
			WholeJob:  ev.WholeJob,
			OpsBefore: ev.OpsBefore,
			OpsAfter:  ev.OpsAfter,
		})
	}
	return out
}

// QueryInfo is a query's point-in-time snapshot, in wire form: the
// /queries/{id} body and the NDJSON stream's record.
type QueryInfo struct {
	ID       string `json:"id"`
	EngineID string `json:"engineId,omitempty"`
	Tenant   string `json:"tenant"`
	Session  string `json:"session,omitempty"`
	Tag      string `json:"tag,omitempty"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	// Jobs maps MapReduce job IDs to lifecycle states once running.
	Jobs       map[string]string `json:"jobs,omitempty"`
	TasksDone  int               `json:"tasksDone,omitempty"`
	TasksTotal int               `json:"tasksTotal,omitempty"`
	SimTimeMs  float64           `json:"simTimeMs,omitempty"`
	ElapsedMs  float64           `json:"elapsedMs"`
	Result     *ResultSummary    `json:"result,omitempty"`
	// Trace is the query's span tree; attached only to the terminal
	// record of the /events NDJSON stream (and absent when tracing was
	// disabled), so pollers never pay for it mid-flight.
	Trace *restore.TraceSnapshot `json:"trace,omitempty"`
}

func (sq *servedQuery) info() QueryInfo {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	if sq.final != nil {
		return *sq.final
	}
	return sq.liveInfo()
}

// liveInfo builds the snapshot from the query's current state; sq.mu
// must be held.
func (sq *servedQuery) liveInfo() QueryInfo {
	inf := QueryInfo{
		ID:      sq.id,
		Tenant:  sq.tenant,
		Session: sq.session,
		Tag:     sq.tag,
		State:   sq.state,
	}
	end := sq.finished
	if end.IsZero() {
		end = time.Now()
	}
	inf.ElapsedMs = float64(end.Sub(sq.start)) / float64(time.Millisecond)
	if sq.err != nil {
		inf.Error = sq.err.Error()
	}
	if sq.q != nil {
		st := sq.q.Status()
		inf.EngineID = st.ID
		inf.Jobs = make(map[string]string, len(st.Jobs))
		for id, js := range st.Jobs {
			inf.Jobs[id] = js.String()
		}
		for _, p := range st.Progress {
			inf.TasksDone += p.TasksDone
			inf.TasksTotal += p.TasksTotal
		}
		inf.SimTimeMs = float64(st.SimTimeSoFar) / float64(time.Millisecond)
	}
	return inf
}

// trace snapshots the underlying query's span tree, or returns the one
// taken when it finished; nil while still queued or when tracing is
// disabled.
func (sq *servedQuery) trace() *restore.TraceSnapshot {
	sq.mu.Lock()
	q, tr := sq.q, sq.tr
	sq.mu.Unlock()
	if q == nil {
		return tr
	}
	return q.Trace()
}

// submitRequest is the POST /queries body. Script and Query are
// alternatives: a Pig Latin script inline, or a PigMix query by name
// resolved server-side.
type submitRequest struct {
	Session   string `json:"session,omitempty"`
	Tenant    string `json:"tenant,omitempty"`
	Script    string `json:"script,omitempty"`
	Query     string `json:"query,omitempty"`
	Tag       string `json:"tag,omitempty"`
	Reuse     *bool  `json:"reuse,omitempty"`
	WholeJobs *bool  `json:"wholeJobs,omitempty"`
	Heuristic string `json:"heuristic,omitempty"`
	Workers   int    `json:"workers,omitempty"`
}

// errorBody is every non-2xx JSON response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// maxBodyBytes bounds every JSON request body the server reads: a
// client cannot make it buffer more than this per request.
const maxBodyBytes = 1 << 20

// decodeBody decodes the request's JSON body into v, reading at most
// maxBodyBytes of it. On failure it writes the error response — 413 for
// an oversized body, 400 otherwise — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeError(w, code, fmt.Errorf("bad %s body: %w", what, err))
	return false
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /sessions", s.handleSessionList)
	mux.HandleFunc("DELETE /sessions/{id}", s.handleSessionClose)
	mux.HandleFunc("POST /queries", s.handleSubmit)
	mux.HandleFunc("GET /queries", s.handleQueryList)
	mux.HandleFunc("GET /queries/{id}", s.handleQueryGet)
	mux.HandleFunc("GET /queries/{id}/trace", s.handleQueryTrace)
	mux.HandleFunc("GET /queries/{id}/events", s.handleQueryEvents)
	mux.HandleFunc("GET /queries/{id}/result", s.handleQueryResult)
	mux.HandleFunc("GET /queries/{id}/output", s.handleQueryOutput)
	mux.HandleFunc("DELETE /queries/{id}", s.handleQueryCancel)
	mux.HandleFunc("POST /cancel", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/slow", s.handleSlowLog)
	return mux
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Tenant string `json:"tenant"`
	}
	if !decodeBody(w, r, "session", &req) {
		return
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	s.nsess++
	sess := &session{ID: fmt.Sprintf("s%d", s.nsess), Tenant: req.Tenant, Created: time.Now()}
	s.sessions[sess.ID] = sess
	s.sessMade++
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, sess)
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Created.Before(out[j].Created) })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	var live []*servedQuery
	for _, sq := range s.queries {
		if sq.session == id {
			live = append(live, sq)
		}
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown session %q", id))
		return
	}
	n := 0
	for _, sq := range live {
		if sq.cancel() {
			n++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"session": sess.ID, "canceled": n})
}

// handleSubmit is the admission path: resolve the tenant, reserve a
// bounded queue slot (or 429), register the query, and run it
// asynchronously once the fair-share scheduler admits it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if !decodeBody(w, r, "submit", &req) {
		return
	}
	opts, err := s.execOptions(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	script := req.Script
	if script == "" && req.Query != "" {
		q, err := pigmix.Get(req.Query)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		script = q.Script
	}
	if script == "" {
		writeError(w, http.StatusBadRequest, errors.New("submit needs script or query"))
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	tenant := req.Tenant
	if req.Session != "" {
		sess, ok := s.sessions[req.Session]
		if !ok {
			s.mu.Unlock()
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown session %q", req.Session))
			return
		}
		tenant = sess.Tenant
	}
	if tenant == "" {
		tenant = "default"
	}
	quota := s.quotaFor(tenant)

	wtr, err := s.adm.enqueue(tenant)
	if err != nil {
		s.meter.add(tenant, quota, func(c *TenantCounters) { c.Rejected++ })
		s.mu.Unlock()
		if errors.Is(err, ErrOverQuota) {
			w.Header().Set("Retry-After",
				strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}

	s.nquery++
	ctx, stop := context.WithCancel(context.Background())
	sq := &servedQuery{
		id:      fmt.Sprintf("sq%d", s.nquery),
		tenant:  tenant,
		session: req.Session,
		tag:     req.Tag,
		start:   time.Now(),
		stop:    stop,
		state:   StateQueued,
		done:    make(chan struct{}),
	}
	s.queries[sq.id] = sq
	s.meter.add(tenant, quota, func(c *TenantCounters) { c.Submitted++; c.Queued++ })
	s.drain.Add(1)
	s.mu.Unlock()

	go s.runQuery(ctx, sq, script, wtr, quota, append(opts, restore.WithTenant(tenant)))

	writeJSON(w, http.StatusAccepted, map[string]string{
		"id": sq.id, "tenant": tenant, "state": StateQueued,
	})
}

// execOptions folds the request's overrides over the server defaults;
// an unparseable heuristic is the client's error, not a silent default.
func (s *Server) execOptions(req submitRequest) ([]restore.ExecOption, error) {
	opts := s.cfg.DefaultOptions
	if req.Reuse != nil {
		opts.Reuse = *req.Reuse
	}
	if req.WholeJobs != nil {
		opts.KeepWholeJobs = *req.WholeJobs
	}
	if req.Heuristic != "" {
		h, err := core.ParseHeuristic(req.Heuristic)
		if err != nil {
			return nil, err
		}
		opts.Heuristic = h
	}
	out := []restore.ExecOption{restore.WithOptions(opts)}
	if req.Tag != "" {
		out = append(out, restore.WithTag(req.Tag))
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.DefaultWorkers
	}
	if workers > 0 {
		out = append(out, restore.WithWorkers(workers))
	}
	return out, nil
}

// runQuery carries one accepted query through admission, submission and
// completion, keeping the meter and retention in step.
func (s *Server) runQuery(ctx context.Context, sq *servedQuery, script string, wtr *waiter, quota TenantQuota, opts []restore.ExecOption) {
	defer s.drain.Done()
	if err := wtr.wait(ctx, s.adm); err != nil {
		// Never admitted: cancelled while queued, or the server drained.
		s.finish(sq, quota, nil, nil, err)
		return
	}
	q, err := s.eng.Submit(ctx, script, opts...)
	if err != nil {
		s.adm.release(sq.tenant)
		s.finish(sq, quota, nil, nil, err)
		return
	}
	sq.mu.Lock()
	sq.state = StateRunning
	sq.q = q
	sq.mu.Unlock()
	s.mu.Lock()
	s.meter.add(sq.tenant, quota, func(c *TenantCounters) { c.Queued--; c.Admitted++; c.InFlight++ })
	s.mu.Unlock()

	res, werr := q.Wait()
	s.adm.release(sq.tenant)
	s.finish(sq, quota, q, res, werr)
}

// finish records a query's terminal state. q is the engine's handle,
// nil when the query never reached the engine (and so never counted in
// InFlight).
//
// It freezes the query into the record its endpoints serve from then
// on: the QueryInfo, one trace snapshot (shared by /trace, the terminal
// /events record and the slow-query ring), and of the result only what
// /output reads. The engine's handle, the full result and the context
// go, so what a retained query holds does not grow with its execution.
func (s *Server) finish(sq *servedQuery, quota TenantQuota, q QueryHandle, res *restore.Result, err error) {
	state := StateDone
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, ErrDraining):
		state = StateCanceled
	default:
		state = StateFailed
	}
	var tr *restore.TraceSnapshot
	if q != nil {
		tr = q.Trace()
	}
	sq.mu.Lock()
	sq.state = state
	sq.err = err
	sq.finished = time.Now()
	wall := sq.finished.Sub(sq.start)
	final := sq.liveInfo()
	final.Result = summarize(res)
	sq.final, sq.tr = &final, tr
	if res != nil && res.Result != nil {
		sq.outputs = res.Outputs()
	}
	stop := sq.stop
	sq.q, sq.stop = nil, nil
	sq.mu.Unlock()
	stop()
	// done closes last: a client that saw the query finish reads
	// counters that count it.
	defer close(sq.done)

	if thr := s.cfg.SlowQueryThreshold; thr > 0 && wall >= thr {
		s.slow.add(SlowQuery{
			ID:     sq.id,
			Tenant: sq.tenant,
			Tag:    sq.tag,
			State:  state,
			WallMs: float64(wall) / float64(time.Millisecond),
			Trace:  tr,
		})
	}

	s.mu.Lock()
	s.meter.add(sq.tenant, quota, func(c *TenantCounters) {
		if q != nil {
			c.InFlight--
		} else {
			c.Queued--
		}
		switch state {
		case StateDone:
			c.Completed++
			if res != nil && res.Result != nil {
				c.JobsRun += int64(res.JobsRun)
				c.JobsReused += int64(res.JobsReused)
				c.Rewrites += int64(len(res.Rewrites))
				if res.JobsReused > 0 || len(res.Rewrites) > 0 {
					c.QueriesWithReuse++
				}
			}
		case StateCanceled:
			c.Canceled++
		default:
			c.Failed++
		}
	})
	// Retention: remember the finished query, forgetting the oldest
	// beyond the bound so a long-lived server's registry stays flat.
	s.doneLog = append(s.doneLog, sq.id)
	for len(s.doneLog) > s.cfg.RetainDone {
		delete(s.queries, s.doneLog[0])
		s.doneLog = s.doneLog[1:]
	}
	s.mu.Unlock()
}

func (s *Server) lookup(id string) *servedQuery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queries[id]
}

func (s *Server) handleQueryList(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	s.mu.Lock()
	list := make([]*servedQuery, 0, len(s.queries))
	for _, sq := range s.queries {
		if tenant == "" || sq.tenant == tenant {
			list = append(list, sq)
		}
	}
	s.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].start.Before(list[j].start) })
	out := make([]QueryInfo, len(list))
	for i, sq := range list {
		out[i] = sq.info()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleQueryGet(w http.ResponseWriter, r *http.Request) {
	sq := s.lookup(r.PathValue("id"))
	if sq == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown query %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, sq.info())
}

// handleQueryTrace serves the query's span tree as JSON — point-in-time
// while running, complete once done. 409 when the query recorded no
// trace (tracing disabled, or not yet submitted to the engine).
func (s *Server) handleQueryTrace(w http.ResponseWriter, r *http.Request) {
	sq := s.lookup(r.PathValue("id"))
	if sq == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown query %q", r.PathValue("id")))
		return
	}
	tr := sq.trace()
	if tr == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("query %s has no trace", sq.id))
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

// handleSlowLog serves the bounded ring of slow-query records (newest
// first); empty unless Config.SlowQueryThreshold is set.
func (s *Server) handleSlowLog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.slow.snapshot())
}

// handleQueryEvents streams the query's status as NDJSON: one record
// per change (sampled every StreamInterval), a final record at
// completion, then EOF.
func (s *Server) handleQueryEvents(w http.ResponseWriter, r *http.Request) {
	sq := s.lookup(r.PathValue("id"))
	if sq == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown query %q", r.PathValue("id")))
		return
	}
	interval := s.cfg.StreamInterval
	if v := r.URL.Query().Get("interval"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			interval = d
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var last []byte
	emit := func(final bool) {
		inf := sq.info()
		if final {
			// The terminal record carries the full span trace so one
			// streaming client gets status and provenance in one pass.
			inf.Trace = sq.trace()
		}
		b, err := json.Marshal(inf)
		if err != nil || bytes.Equal(b, last) {
			return
		}
		last = b
		_, _ = w.Write(append(b, '\n'))
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit(false)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-sq.done:
			emit(true)
			return
		case <-r.Context().Done():
			return
		case <-t.C:
			emit(false)
		}
	}
}

func (s *Server) handleQueryResult(w http.ResponseWriter, r *http.Request) {
	sq := s.lookup(r.PathValue("id"))
	if sq == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown query %q", r.PathValue("id")))
		return
	}
	select {
	case <-sq.done:
	case <-r.Context().Done():
		return
	}
	writeJSON(w, http.StatusOK, sq.info())
}

// handleQueryOutput returns the rows of one of the query's STORE
// destinations as text lines (one encoded tuple per line). Any other
// path is a 404: the endpoint never reads a dataset the query did not
// store, such as an input or another tenant's output.
func (s *Server) handleQueryOutput(w http.ResponseWriter, r *http.Request) {
	sq := s.lookup(r.PathValue("id"))
	if sq == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown query %q", r.PathValue("id")))
		return
	}
	path := r.URL.Query().Get("path")
	if path == "" {
		writeError(w, http.StatusBadRequest, errors.New("output needs ?path="))
		return
	}
	select {
	case <-sq.done:
	case <-r.Context().Done():
		return
	}
	sq.mu.Lock()
	outputs, err := sq.outputs, sq.err
	sq.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusConflict, fmt.Errorf("query %s produced no output", sq.id))
		return
	}
	rows, rerr := outputs.Read(path)
	if rerr != nil {
		code := http.StatusNotFound
		if errors.Is(rerr, restore.ErrOutputReplaced) {
			code = http.StatusConflict
		}
		writeError(w, code, rerr)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// A write error means the client went away; there is no one left to
	// report it to.
	tw := tuple.NewWriter(w)
	for _, row := range rows {
		if tw.Write(row) != nil {
			return
		}
	}
	_ = tw.Flush()
}

func (s *Server) handleQueryCancel(w http.ResponseWriter, r *http.Request) {
	sq := s.lookup(r.PathValue("id"))
	if sq == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown query %q", r.PathValue("id")))
		return
	}
	canceled := sq.cancel()
	writeJSON(w, http.StatusOK, map[string]any{"id": sq.id, "canceled": canceled})
}

// handleCancel aborts every live query whose service ID, engine ID or
// tag matches — the HTTP face of System.Cancel(idOrTag).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	var req struct {
		IDOrTag string `json:"idOrTag"`
	}
	if !decodeBody(w, r, "cancel", &req) {
		return
	}
	if req.IDOrTag == "" {
		writeError(w, http.StatusBadRequest, errors.New("cancel needs idOrTag"))
		return
	}
	s.mu.Lock()
	live := make([]*servedQuery, 0, len(s.queries))
	for _, sq := range s.queries {
		live = append(live, sq)
	}
	s.mu.Unlock()
	n := 0
	for _, sq := range live {
		match := sq.id == req.IDOrTag || (sq.tag != "" && sq.tag == req.IDOrTag)
		if !match {
			sq.mu.Lock()
			match = sq.q != nil && sq.q.ID() == req.IDOrTag
			sq.mu.Unlock()
		}
		if match && sq.cancel() {
			n++
		}
	}
	writeJSON(w, http.StatusOK, map[string]int{"canceled": n})
}

// Stats snapshots the full bundle the /metrics endpoint serves.
func (s *Server) Stats() StatsBundle {
	bundle := s.eng.Stats()
	s.mu.Lock()
	svc := s.meter.snapshot()
	svc.SessionsCreated = s.sessMade
	svc.SessionsActive = int64(len(s.sessions))
	s.mu.Unlock()
	bundle.Service = &svc
	return bundle
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		s.Stats().WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}
