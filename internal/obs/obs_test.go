package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilTraceNoops checks every method of a nil *Trace is a safe no-op
// — the whole stack calls through unconditionally on untraced runs.
func TestNilTraceNoops(t *testing.T) {
	var tr *Trace
	id := tr.Start(NoSpan, KindJob, "j1")
	if id != NoSpan {
		t.Errorf("nil Start = %v, want NoSpan", id)
	}
	tr.End(id)
	tr.Event(id, KindCandidate, "e1", ReasonWin)
	tr.Note(id, "x")
	tr.Sim(id, time.Second)
	tr.Bytes(id, 1, 2)
	if tr.Root() != NoSpan {
		t.Error("nil Root != NoSpan")
	}
	if tr.Len() != 0 {
		t.Error("nil Len != 0")
	}
	if tr.Snapshot() != nil {
		t.Error("nil Snapshot != nil")
	}
}

// TestSnapshotTree checks the span tree nests children under parents
// and carries wall, sim and byte figures through.
func TestSnapshotTree(t *testing.T) {
	tr := NewTrace("q1")
	root := tr.Start(NoSpan, KindSubmit, "q1")
	job := tr.Start(root, KindJob, "j1")
	probe := tr.Start(job, KindProbe, "j1")
	tr.Event(probe, KindCandidate, "e1", ReasonFootprintMiss)
	tr.End(probe)
	exec := tr.Start(job, KindJobExec, "j1")
	tr.Sim(exec, 3*time.Second)
	tr.Bytes(exec, 100, 40)
	tr.End(exec)
	tr.End(job)
	tr.End(root)

	snap := tr.Snapshot()
	if snap.QueryID != "q1" || len(snap.Spans) != 1 {
		t.Fatalf("snapshot = %+v, want one root", snap)
	}
	r := snap.Spans[0]
	if r.Kind != KindSubmit || len(r.Children) != 1 {
		t.Fatalf("root = %+v, want submit with one job child", r)
	}
	j := r.Children[0]
	if j.Kind != KindJob || len(j.Children) != 2 {
		t.Fatalf("job = %+v, want probe + exec children", j)
	}
	p, e := j.Children[0], j.Children[1]
	if p.Kind != KindProbe || len(p.Children) != 1 || p.Children[0].Note != ReasonFootprintMiss {
		t.Errorf("probe = %+v, want one footprint-miss candidate", p)
	}
	if e.Kind != KindJobExec || e.SimMs != 3000 || e.BytesIn != 100 || e.BytesOut != 40 {
		t.Errorf("exec = %+v, want sim 3000ms, bytes 100/40", e)
	}
}

// TestSnapshotMidFlight checks snapshotting a live trace closes open
// spans at the snapshot instant without mutating the trace.
func TestSnapshotMidFlight(t *testing.T) {
	tr := NewTrace("q1")
	root := tr.Start(NoSpan, KindSubmit, "q1")
	tr.Start(root, KindJob, "j1") // left open
	snap := tr.Snapshot()
	if len(snap.Spans) != 1 || len(snap.Spans[0].Children) != 1 {
		t.Fatalf("mid-flight snapshot = %+v", snap)
	}
	if snap.Spans[0].Children[0].WallMs < 0 {
		t.Error("open span got negative wall")
	}
	if tr.Len() != 2 {
		t.Errorf("snapshot mutated the trace: len %d", tr.Len())
	}
}

// TestTraceConcurrentSpans hammers one trace from many goroutines (the
// driver's worker pool does exactly this); run under -race.
func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("q1")
	root := tr.Start(NoSpan, KindSubmit, "q1")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := tr.Start(root, KindJob, "j")
				tr.Event(s, KindCandidate, "e", ReasonWin)
				tr.Bytes(s, 1, 1)
				tr.End(s)
			}
		}()
	}
	wg.Wait()
	tr.End(root)
	snap := tr.Snapshot()
	jobs := snap.Spans[0].Children
	if len(jobs) != 8*200 {
		t.Fatalf("job children = %d, want %d", len(jobs), 8*200)
	}
	for _, j := range jobs {
		if len(j.Children) != 1 || j.Children[0].Kind != KindCandidate {
			t.Fatalf("job span = %+v, want one candidate event child", j)
		}
	}
}

// TestHistogramPercentiles checks bucket interpolation brackets known
// durations and the overflow path reports the tracked max.
func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	// 1ms lands in the (0.8ms, 1.6ms] bucket; interpolation must stay
	// inside it.
	if s.P50Ms <= 0.8 || s.P50Ms > 1.6 {
		t.Errorf("p50 = %vms, want in (0.8, 1.6]", s.P50Ms)
	}
	if s.P99Ms < s.P50Ms {
		t.Errorf("p99 %v < p50 %v", s.P99Ms, s.P50Ms)
	}

	var o Histogram
	o.Observe(10 * time.Minute) // beyond the last bucket bound
	os := o.Snapshot()
	if os.P99Ms != os.MaxMs || os.MaxMs != float64(10*time.Minute)/float64(time.Millisecond) {
		t.Errorf("overflow percentile = %v, max = %v", os.P99Ms, os.MaxMs)
	}

	var z Histogram
	if zs := z.Snapshot(); zs.P50Ms != 0 || zs.Count != 0 {
		t.Errorf("empty snapshot = %+v", zs)
	}
}

// TestHistogramPrometheus checks the exposition shape: cumulative
// buckets in seconds, +Inf, _sum and _count.
func TestHistogramPrometheus(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	h.Observe(time.Hour) // overflow
	var b strings.Builder
	h.Snapshot().WritePrometheus(&b, "x_seconds")
	text := b.String()
	for _, want := range []string{
		"# TYPE x_seconds histogram",
		`x_seconds_bucket{le="+Inf"} 2`,
		"x_seconds_count 2",
		"x_seconds_sum",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
}

// TestMetricsNilSafe checks a nil *Metrics absorbs observations.
func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.ObserveQuery(time.Second)
	m.ObserveProbe(time.Second)
	m.ObserveClaimWait(time.Second)
	m.ObserveRefresh(time.Second)
	if s := m.Snapshot(); s.Query.Count != 0 {
		t.Errorf("nil metrics snapshot = %+v", s)
	}
}

// TestExplainRendering spot-checks the human-readable report.
func TestExplainRendering(t *testing.T) {
	tr := NewTrace("q7")
	root := tr.Start(NoSpan, KindSubmit, "q7")
	job := tr.Start(root, KindJob, "j1")
	probe := tr.Start(job, KindProbe, "j1")
	tr.Event(probe, KindCandidate, "e1", ReasonNegCache)
	tr.Event(probe, KindCandidate, "e2", ReasonWin)
	tr.End(probe)
	reuse := tr.Start(job, KindReuse, "e2")
	tr.Note(reuse, "sub-plan")
	tr.Bytes(reuse, 5000, 100)
	tr.End(reuse)
	tr.End(job)
	tr.End(root)

	var b strings.Builder
	Explain(&b, tr.Snapshot())
	text := b.String()
	for _, want := range []string{"query q7", "2 candidate(s) nominated", "e1: rejected — neg-cache", "e2: WIN", "rewritten against entry e2"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q in:\n%s", want, text)
		}
	}

	b.Reset()
	Explain(&b, nil)
	if !strings.Contains(b.String(), "no trace recorded") {
		t.Errorf("nil explain = %q", b.String())
	}
}
