// Package obs is the per-query observability layer: span traces with
// reuse provenance, and wall-latency histograms.
//
// A Trace is attached to one query and records a span tree. All Trace
// methods are nil-receiver safe — an untraced query carries a nil
// *Trace and every recording call is a branch-free no-op — and the
// span storage is a preallocated arena grown geometrically, so tracing
// never perturbs the simulated cost model (SimTime and DFS bytes are
// differential-tested identical traced vs untraced).
//
// # Span taxonomy
//
//	submit            root: one query, submit → terminal state
//	  compile         parse → logical plan → optimize → MapReduce compile
//	  job <id>        one MapReduce job of the workflow DAG
//	    probe           one matcher probe against the repository
//	      probe.candidate   one nominated entry; Note is the verdict:
//	                        footprint-miss, invalid, neg-cache,
//	                        containment-fail, whole-plan-skipped,
//	                        refresh-candidate, win
//	    reuse           a rewrite applied; Ref names the winning entry,
//	                    BytesIn the stored input bytes the reuse avoids
//	    claim.acquire   claiming this job's materialization fingerprints
//	    claim.wait      blocked on a peer materializing a shared output
//	    refresh         delta-refresh of a stale grown entry (i2MapReduce)
//	      refresh.classify  growth classification of the entry's inputs
//	      refresh.delta     the delta job over the appended slice
//	      refresh.merge     the stored ⊎ delta merge job
//	    job.exec        engine execution of the (possibly rewritten) job
//	  store.commit    staged STORE output renamed to its user path
//
// Spans carry wall-clock start/end, simulated time where the stage has
// one, and byte counters (BytesIn/BytesOut) where bytes move.
package obs

import (
	"sync"
	"time"
)

// Span kinds.
const (
	KindSubmit          = "submit"
	KindCompile         = "compile"
	KindJob             = "job"
	KindProbe           = "probe"
	KindCandidate       = "probe.candidate"
	KindReuse           = "reuse"
	KindClaimAcquire    = "claim.acquire"
	KindClaimWait       = "claim.wait"
	KindRefresh         = "refresh"
	KindRefreshClassify = "refresh.classify"
	KindRefreshDelta    = "refresh.delta"
	KindRefreshMerge    = "refresh.merge"
	KindJobExec         = "job.exec"
	KindStoreCommit     = "store.commit"
)

// Candidate verdicts (the Note of a probe.candidate span).
const (
	ReasonFootprintMiss    = "footprint-miss"
	ReasonInvalid          = "invalid"
	ReasonNegCache         = "neg-cache"
	ReasonContainmentFail  = "containment-fail"
	ReasonWholePlanSkipped = "whole-plan-skipped"
	ReasonRefreshCandidate = "refresh-candidate"
	ReasonWin              = "win"
)

// SpanID indexes a span inside its Trace's arena. NoSpan (-1) is the
// id every recording method returns on a nil Trace; passing it back in
// is always safe.
type SpanID int32

// NoSpan is the null span id.
const NoSpan SpanID = -1

// Span is one recorded stage of a query. Fields are written through
// Trace methods only; read them from a Snapshot.
type Span struct {
	ID     SpanID
	Parent SpanID
	Kind   string
	// Ref names the object the span is about: an entry id for
	// probe.candidate/reuse, a job id for job/job.exec, a path for
	// store.commit.
	Ref string
	// Note carries kind-specific detail, e.g. a candidate's verdict.
	Note     string
	Start    time.Time
	End      time.Time
	Sim      time.Duration
	BytesIn  int64
	BytesOut int64
}

// Trace records one query's span tree. The zero value is not usable;
// build with NewTrace. A nil *Trace is a valid no-op recorder.
type Trace struct {
	QueryID string

	mu    sync.Mutex
	start time.Time
	spans []Span
}

// arenaCap is the preallocated span capacity: enough for a typical
// PigMix query (a handful of jobs, a few candidates each) without a
// single growth step.
const arenaCap = 128

// NewTrace builds a trace for one query.
func NewTrace(queryID string) *Trace {
	return &Trace{
		QueryID: queryID,
		start:   time.Now(),
		spans:   make([]Span, 0, arenaCap),
	}
}

// Root returns the root span's id, or NoSpan on a nil or empty trace.
func (t *Trace) Root() SpanID {
	if t == nil {
		return NoSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return NoSpan
	}
	return 0
}

// Start opens a span under parent and returns its id. Nil-safe.
func (t *Trace) Start(parent SpanID, kind, ref string) SpanID {
	if t == nil {
		return NoSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, Span{
		ID:     id,
		Parent: parent,
		Kind:   kind,
		Ref:    ref,
		Start:  time.Now(),
	})
	return id
}

// End closes a span. Nil- and NoSpan-safe.
func (t *Trace) End(id SpanID) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) < len(t.spans) {
		t.spans[id].End = time.Now()
	}
}

// Event records an instantaneous span (start == end) under parent —
// the shape of a probe.candidate verdict. Nil-safe.
func (t *Trace) Event(parent SpanID, kind, ref, note string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, Span{
		ID:     id,
		Parent: parent,
		Kind:   kind,
		Ref:    ref,
		Note:   note,
		Start:  now,
		End:    now,
	})
}

// Note annotates a span. Nil- and NoSpan-safe.
func (t *Trace) Note(id SpanID, note string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) < len(t.spans) {
		t.spans[id].Note = note
	}
}

// Sim records a span's simulated time. Nil- and NoSpan-safe.
func (t *Trace) Sim(id SpanID, d time.Duration) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) < len(t.spans) {
		t.spans[id].Sim = d
	}
}

// Bytes adds byte counters to a span. Nil- and NoSpan-safe.
func (t *Trace) Bytes(id SpanID, in, out int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) < len(t.spans) {
		t.spans[id].BytesIn += in
		t.spans[id].BytesOut += out
	}
}

// Len returns the number of recorded spans. Nil-safe.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// TraceJSON is the wire form of a trace: the span tree nested, times
// as millisecond offsets from the trace start.
type TraceJSON struct {
	QueryID string      `json:"queryId"`
	Start   time.Time   `json:"start"`
	WallMs  float64     `json:"wallMs"`
	Spans   []*SpanJSON `json:"spans"`
}

// SpanJSON is one span in wire form.
type SpanJSON struct {
	ID       SpanID      `json:"id"`
	Kind     string      `json:"kind"`
	Ref      string      `json:"ref,omitempty"`
	Note     string      `json:"note,omitempty"`
	StartMs  float64     `json:"startMs"`
	WallMs   float64     `json:"wallMs"`
	SimMs    float64     `json:"simMs,omitempty"`
	BytesIn  int64       `json:"bytesIn,omitempty"`
	BytesOut int64       `json:"bytesOut,omitempty"`
	Children []*SpanJSON `json:"children,omitempty"`
}

// Snapshot renders the trace as a nested tree. Spans still open at
// snapshot time are closed at the snapshot instant. Nil-safe (returns
// nil).
func (t *Trace) Snapshot() *TraceJSON {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()

	out := &TraceJSON{QueryID: t.QueryID, Start: t.start}
	nodes := make([]*SpanJSON, len(t.spans))
	var wallEnd time.Time
	for i := range t.spans {
		s := &t.spans[i]
		end := s.End
		if end.IsZero() {
			end = now
		}
		if end.After(wallEnd) {
			wallEnd = end
		}
		nodes[i] = &SpanJSON{
			ID:       s.ID,
			Kind:     s.Kind,
			Ref:      s.Ref,
			Note:     s.Note,
			StartMs:  ms(s.Start.Sub(t.start)),
			WallMs:   ms(end.Sub(s.Start)),
			SimMs:    ms(s.Sim),
			BytesIn:  s.BytesIn,
			BytesOut: s.BytesOut,
		}
	}
	for i := range t.spans {
		p := t.spans[i].Parent
		if p >= 0 && int(p) < len(nodes) {
			nodes[p].Children = append(nodes[p].Children, nodes[i])
		} else {
			out.Spans = append(out.Spans, nodes[i])
		}
	}
	if !wallEnd.IsZero() {
		out.WallMs = ms(wallEnd.Sub(t.start))
	}
	return out
}

func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
