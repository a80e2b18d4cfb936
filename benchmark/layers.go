package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro"
	"repro/internal/logical"
	"repro/internal/mrcompile"
	"repro/internal/piglatin"
	"repro/internal/tuple"
)

// layerProbe collects the per-layer view of a traced phase, all of it
// from outside the program: the span tree each query exposes through
// Query.Trace(), the metering DFS wrapper's calls hung into that tree,
// Result.JobStats, and before/after deltas of the public stats
// snapshots. Spans are kept in memory and written when the run ends.
type layerProbe struct {
	in    *instance
	epoch time.Time
	spans []spanRec

	kindCount map[string]int
	kindWall  map[string]time.Duration
	kindSelf  map[string]time.Duration
	classify  time.Duration // refresh start → its classify verdict

	mapTasks, redTasks int
	inputSimBytes      int64
	userOutBytes       int64

	cells map[[2]string]cell // the wrapper's matrix when the phase ended
	m     metrics
}

// spanRec is one span of the written trace: the program's own spans
// (kind as internal/obs names them, the root renamed "query"), the
// benchmark's "append" and "sweep" op spans, and one "dfs.<op>" span
// per wrapper call, parented to the innermost span containing it. A
// run of consecutive dfs.meta calls on one namespace class under one
// parent — there are hundreds per query — is written as one span
// with Calls set and the durations summed.
type spanRec struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = root of its query or op
	Query   string  `json:"query"`
	Kind    string  `json:"kind"`
	Ref     string  `json:"ref,omitempty"`
	Note    string  `json:"note,omitempty"`
	StartUs float64 `json:"start_us"` // from the start of the measured phase
	DurUs   float64 `json:"dur_us"`
	SelfUs  float64 `json:"self_us"` // duration minus the part its children cover
	Bytes   int64   `json:"bytes,omitempty"`
	Calls   int     `json:"calls,omitempty"`
}

// node is a span while its tree is being assembled.
type node struct {
	kind, ref, note string
	start, end      time.Duration // offsets from the probe's epoch
	bytes           int64
	leaf            bool // a dfs call: never a parent
	children        []*node
}

func newLayerProbe(in *instance) *layerProbe {
	in.metered.reset() // setup's calls are not the phase's
	return &layerProbe{
		in:        in,
		epoch:     time.Now(),
		kindCount: map[string]int{},
		kindWall:  map[string]time.Duration{},
		kindSelf:  map[string]time.Duration{},
		m:         metrics{},
	}
}

// addQuery hangs one finished query's spans and DFS calls into the
// trace and folds its JobStats into the engine tallies.
func (lp *layerProbe) addQuery(o op, out outcome) {
	calls := lp.in.metered.drainCalls()
	if out.err != nil || out.query == nil {
		return
	}
	if res, err := out.query.Result(); err == nil {
		for _, js := range res.JobStats {
			lp.mapTasks += js.MapTasks
			lp.redTasks += js.RedTasks
			lp.inputSimBytes += js.InputSimBytes
		}
	}
	lp.userOutBytes += lp.in.raw.Size(out.final)
	tr := out.query.Trace()
	if tr == nil || len(tr.Spans) == 0 {
		return
	}
	root := lp.convert(tr.Spans[0], tr.Start.Sub(lp.epoch))
	root.kind = "query"
	lp.emit(tr.QueryID, root, calls)
}

// addOp records a benchmark-issued op (append, sweep) as a root span
// with the DFS calls it made.
func (lp *layerProbe) addOp(kind string, start time.Time, dur time.Duration) {
	s := start.Sub(lp.epoch)
	root := &node{kind: kind, start: s, end: s + dur}
	lp.emit(fmt.Sprintf("%s-%d", kind, lp.kindCount[kind]+1), root, lp.in.metered.drainCalls())
}

func (lp *layerProbe) convert(s *restore.TraceSpan, traceStart time.Duration) *node {
	start := traceStart + time.Duration(s.StartMs*float64(time.Millisecond))
	n := &node{
		kind:  s.Kind,
		ref:   s.Ref,
		note:  s.Note,
		start: start,
		end:   start + time.Duration(s.WallMs*float64(time.Millisecond)),
		bytes: s.BytesIn + s.BytesOut,
	}
	for _, ch := range s.Children {
		n.children = append(n.children, lp.convert(ch, traceStart))
	}
	return n
}

// emit places the DFS calls, computes self times and flattens the tree
// into the span list and the per-kind aggregates.
func (lp *layerProbe) emit(query string, root *node, calls []dfsCall) {
	for _, c := range calls {
		s := c.Start.Sub(lp.epoch)
		place(root, &node{kind: "dfs." + c.Op, ref: c.NS, start: s, end: s + c.Dur, bytes: c.Bytes, leaf: true})
	}
	var walk func(n *node, parent int)
	walk = func(n *node, parent int) {
		dur, self := n.end-n.start, selfTime(n)
		lp.kindCount[n.kind]++
		lp.kindWall[n.kind] += dur
		lp.kindSelf[n.kind] += self
		if k := len(lp.spans) - 1; k >= 0 && n.kind == "dfs."+opMeta {
			// A leaf follows its parent's previous child directly.
			if last := &lp.spans[k]; last.Kind == n.kind && last.Parent == parent && last.Ref == n.ref {
				last.Calls = max(last.Calls, 1) + 1
				last.DurUs += us(dur)
				last.SelfUs += us(self)
				return
			}
		}
		id := len(lp.spans) + 1
		lp.spans = append(lp.spans, spanRec{
			ID: id, Parent: parent, Query: query, Kind: n.kind, Ref: n.ref, Note: n.note,
			StartUs: us(n.start), DurUs: us(dur), SelfUs: us(self), Bytes: n.bytes,
		})
		for _, ch := range n.children {
			if n.kind == "refresh" && ch.kind == "refresh.classify" {
				lp.classify += ch.start - n.start
			}
			walk(ch, id)
		}
	}
	walk(root, 0)
}

// place hangs leaf under the innermost span whose interval contains
// it; among concurrent siblings (independent jobs of one DAG) the
// latest-started one wins.
func place(n, leaf *node) {
	for {
		var next *node
		for _, ch := range n.children {
			if !ch.leaf && ch.start <= leaf.start && leaf.end <= ch.end {
				next = ch
			}
		}
		if next == nil {
			break
		}
		n = next
	}
	n.children = append(n.children, leaf)
}

// selfTime is a span's duration minus the part of its interval its
// children cover (their union, so concurrent children count once).
func selfTime(n *node) time.Duration {
	type iv struct{ s, e time.Duration }
	ivs := make([]iv, 0, len(n.children))
	for _, ch := range n.children {
		s, e := max(ch.start, n.start), min(ch.end, n.end)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var covered, hi time.Duration
	hi = n.start
	for _, v := range ivs {
		if v.e <= hi {
			continue
		}
		covered += v.e - max(v.s, hi)
		hi = v.e
	}
	return n.end - n.start - covered
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finish derives every per-layer metric the phase itself determines.
func (lp *layerProbe) finish(ph *phase, before, after snapshotStats) {
	m, c := lp.m, ph.counts
	queries := float64(max(c.Queries, 1))

	mt0, mt1 := before.matcher, after.matcher
	probes := float64(mt1.Probes - mt0.Probes)
	m["core.matcher.probes"] = probes
	m["core.matcher.candidates_per_probe"] = ratio(float64(mt1.Candidates-mt0.Candidates), probes)
	m["core.matcher.traversals_per_probe"] = ratio(float64(mt1.FullTraversals-mt0.FullTraversals), probes)
	neg := float64(mt1.NegativeHits - mt0.NegativeHits + mt1.SharedNegHits - mt0.SharedNegHits)
	m["core.matcher.neg_hit_ratio"] = ratio(neg, neg+float64(mt1.FullTraversals-mt0.FullTraversals))
	m["core.matcher.index_entries"] = float64(mt1.IndexEntries)
	m["core.matcher.probe_ms_per_query"] = ms(lp.kindWall["probe"]) / queries
	m["core.matcher.reuse_hit_ratio"] = float64(c.Reusing) / queries
	m["core.matcher.jobs_reused_ratio"] = ratio(float64(c.JobsReused), float64(c.JobsReused+c.JobsRun))

	st0, st1 := before.storage, after.storage
	m["core.storage.claims_granted"] = float64(st1.ClaimsGranted - st0.ClaimsGranted)
	m["core.storage.claim_waits"] = float64(st1.ClaimWaits - st0.ClaimWaits)
	m["core.storage.claim_wait_ms"] = ms(lp.kindWall["claim.wait"])
	m["core.storage.entries_stored_per_query"] = float64(c.Stored) / queries
	m["core.storage.evictions"] = float64(st1.Evictions - st0.Evictions)
	m["core.storage.evicted_bytes"] = float64(st1.EvictedBytes - st0.EvictedBytes)
	m["core.storage.sweep_ms"] = 0
	for _, ps := range ph.passes {
		m["core.storage.sweep_ms"] += ps.SweepMs
	}
	m["core.storage.usage_bytes"] = float64(st1.UsageBytes)

	cells, created := lp.in.metered.snapshot()
	lp.cells = cells
	sum := func(ops []string, nss []string) (calls, bytes int64, dur time.Duration) {
		for _, o := range ops {
			for _, n := range nss {
				cl := cells[[2]string{o, n}]
				calls, bytes, dur = calls+cl.Calls, bytes+cl.Bytes, dur+cl.Dur
			}
		}
		return
	}
	mutations := []string{opWrite, opCAS, opRename, opDelete}
	_, jBytes, jDur := sum(mutations, []string{nsJournal})
	lCalls, _, lDur := sum(opClasses, []string{nsLocks})
	m["core.durable.appends"] = float64(after.durable.Appends - before.durable.Appends)
	m["core.durable.append_bytes"] = float64(jBytes)
	m["core.durable.append_ms_per_query"] = ms(jDur) / queries
	m["core.durable.lease_ops"] = float64(lCalls)
	m["core.durable.lease_ms_per_query"] = ms(lDur) / queries
	m["core.durable.compactions"] = float64(after.durable.Compactions - before.durable.Compactions)

	refreshes := float64(c.Refreshes)
	m["core.refresh.refreshes"] = refreshes
	m["core.refresh.failed"] = float64(c.RefreshFails)
	m["core.refresh.delta_bytes_read"] = float64(after.delta.DeltaBytesRead - before.delta.DeltaBytesRead)
	m["core.refresh.cold_bytes_avoided"] = float64(after.delta.ColdBytesAvoided - before.delta.ColdBytesAvoided)
	spans := float64(max(lp.kindCount["refresh"], 1))
	m["core.refresh.ms_per_refresh"] = ms(lp.kindWall["refresh"]) / spans
	m["core.refresh.classify_ms"] = ms(lp.classify) / spans
	m["core.refresh.delta_ms"] = ms(lp.kindWall["refresh.delta"]) / spans
	m["core.refresh.merge_ms"] = ms(lp.kindWall["refresh.merge"]) / spans
	if n := len(ph.passes); n > 1 {
		m["core.refresh.drift_ratio"] = ratio(ph.passes[n-1].P50Ms, ph.passes[0].P50Ms)
	}

	execs := float64(max(lp.kindCount["job.exec"], 1))
	m["mapreduce.jobs_run"] = float64(c.JobsRun)
	m["mapreduce.map_tasks"] = float64(lp.mapTasks)
	m["mapreduce.reduce_tasks"] = float64(lp.redTasks)
	m["mapreduce.exec_ms_per_job"] = ms(lp.kindWall["job.exec"]) / execs
	m["mapreduce.exec_self_ms_per_job"] = ms(lp.kindSelf["job.exec"]) / execs
	m["mapreduce.input_mb_per_exec_s"] = ratio(float64(lp.inputSimBytes)/lp.in.cfg.SimScale/1e6, lp.kindWall["job.exec"].Seconds())

	ca0, ca1 := before.cache, after.cache
	m["mapreduce.cache.hits"] = float64(c.CacheHits)
	m["mapreduce.cache.misses"] = float64(c.CacheMisses)
	m["mapreduce.cache.hit_ratio"] = ratio(float64(c.CacheHits), float64(c.CacheHits+c.CacheMisses))
	m["mapreduce.cache.evictions"] = float64(ca1.Evictions - ca0.Evictions)
	m["mapreduce.cache.used_bytes"] = float64(ca1.UsedBytes)
	m["mapreduce.cache.partition_replays"] = float64(ca1.PartitionReplays - ca0.PartitionReplays)

	var busy time.Duration
	var committed int64
	for _, o := range opClasses {
		calls, bytes, dur := sum([]string{o}, nsClasses)
		busy += dur
		m["dfs."+o+".calls"] = float64(calls)
		m["dfs."+o+".ms"] = ms(dur)
		switch o {
		case opRead:
			m["dfs.read.bytes"] = float64(bytes)
		case opWrite:
			m["dfs.write.bytes"] = float64(bytes)
			committed += bytes
		case opCAS:
			committed += bytes
		}
	}
	m["dfs.files_created_per_query"] = float64(created) / queries
	m["dfs.write_amp"] = ratio(float64(committed), float64(lp.userOutBytes))
	var wall float64
	for _, ps := range ph.passes {
		wall += ps.WallS
	}
	m["dfs.busy_share"] = ratio(busy.Seconds(), wall)

	m["service.http_overhead_p50_ms"], m["service.rejected"], m["service.completed"] = 0, 0, 0
	if d, ok := lp.in.door.(*httpDoor); ok {
		m["service.http_overhead_p50_ms"] = median(ph.httpOverheadMs)
		if b, err := d.metrics(); err != nil || b.Service == nil {
			ph.errs = append(ph.errs, fmt.Sprintf("GET /metrics: %v", err))
		} else {
			// Setup's warm-up queries went through the same server.
			warm := float64(len(lp.in.sp.warm(lp.in.rc.seed)))
			m["service.rejected"] = float64(b.Service.Rejected)
			m["service.completed"] = float64(b.Service.Completed) - warm
		}
	}

	m["cluster.sim_time_s"] = time.Duration(c.SimTimeNs).Seconds()

	m["proc.allocs_per_query"] = float64(after.mem.Mallocs-before.mem.Mallocs) / queries
	m["proc.alloc_mb_per_query"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1e6 / queries
	m["proc.gc_pause_ms"] = ms(time.Duration(after.mem.PauseTotalNs - before.mem.PauseTotalNs))
}

// recoverProbe closes the system, reopens it over the same backend and
// times the restart up to Recover returning — what a restarted server
// pays before it can answer — then runs one query against the
// recovered repository.
func (lp *layerProbe) recoverProbe(warm op) error {
	in := lp.in
	lp.m["core.durable.recover_ms"], lp.m["core.durable.recovered_entries"] = 0, 0
	if !in.sp.durable {
		return nil
	}
	in.close()
	t := time.Now()
	in.metered = newMeteredFS(in.raw, in.sp.nsRoot)
	if err := in.open(); err != nil {
		return fmt.Errorf("recovery probe: %w", err)
	}
	lp.m["core.durable.recover_ms"] = ms(time.Since(t))
	lp.m["core.durable.recovered_entries"] = float64(in.sys.DurabilityStats().RecoveredEntries)
	if out := in.door.run(0, warm); out.err != nil {
		return fmt.Errorf("recovery probe: query after recovery: %w", out.err)
	}
	return nil
}

// replayCompile times the three public compile calls on every distinct
// script of the stream and reports stream-weighted means of the
// per-script medians.
func (lp *layerProbe) replayCompile(stream [][][]op) error {
	type script struct {
		text string
		n    int
	}
	var order []string
	seen := map[string]*script{}
	total := 0
	for _, pass := range stream {
		for _, ops := range pass {
			for _, o := range ops {
				if o.kind != opQuery {
					continue
				}
				if seen[o.name] == nil {
					seen[o.name] = &script{text: o.script}
					order = append(order, o.name)
				}
				seen[o.name].n++
				total++
			}
		}
	}
	if total == 0 {
		return nil
	}
	// At least compileReplays calls of each stage in all, and enough per
	// script for a median.
	reps := max(3, (compileReplays+len(order)-1)/len(order))
	var parse, build, compile, jobs float64
	for _, name := range order {
		sc := seen[name]
		var ps, bs, cs []float64
		njobs := 0
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			parsed, err := piglatin.Parse(sc.text)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("replay %s: %w", name, err)
			}
			lplan, err := logical.Build(parsed)
			if err != nil {
				return fmt.Errorf("replay %s: %w", name, err)
			}
			lplan = logical.Optimize(lplan)
			t2 := time.Now()
			wf, err := mrcompile.Compile(lplan, mrcompile.Options{
				TempPrefix:      "tmp/replay",
				DefaultReducers: lp.in.cfg.DefaultReducers,
			})
			t3 := time.Now()
			if err != nil {
				return fmt.Errorf("replay %s: %w", name, err)
			}
			njobs = len(wf.Jobs)
			ps, bs, cs = append(ps, us(t1.Sub(t0))), append(bs, us(t2.Sub(t1))), append(cs, us(t3.Sub(t2)))
		}
		w := float64(sc.n) / float64(total)
		parse += w * median(ps)
		build += w * median(bs)
		compile += w * median(cs)
		jobs += w * float64(njobs)
	}
	lp.m["piglatin.parse_us"], lp.m["logical.build_us"] = parse, build
	lp.m["mrcompile.compile_us"], lp.m["mrcompile.jobs_per_query"] = compile, jobs
	return nil
}

const (
	compileReplays = 300
	codecReplayFor = 250 * time.Millisecond
)

// replayCodec times the text codec over the workload's own input part
// files: DecodeTextBatch of the raw bytes, then tuple.Writer over the
// decoded rows.
func (lp *layerProbe) replayCodec() error {
	var files [][]byte
	var size int64
	for _, f := range lp.in.raw.List(lp.in.sp.inputPath) {
		data, err := lp.in.raw.ReadFile(f)
		if err != nil {
			return fmt.Errorf("codec replay: %w", err)
		}
		files = append(files, data)
		size += int64(len(data))
	}
	if size == 0 {
		return fmt.Errorf("codec replay: no input under %s", lp.in.sp.inputPath)
	}
	var batches []*tuple.Batch
	var done int64
	start := time.Now()
	for time.Since(start) < codecReplayFor || len(batches) == 0 {
		batches = batches[:0]
		for _, data := range files {
			b, err := tuple.DecodeTextBatch(data)
			if err != nil {
				return fmt.Errorf("codec replay: %w", err)
			}
			batches = append(batches, b)
		}
		done += size
	}
	lp.m["tuple.decode_text_mb_s"] = float64(done) / 1e6 / time.Since(start).Seconds()

	done = 0
	start = time.Now()
	for time.Since(start) < codecReplayFor || done == 0 {
		w := tuple.NewWriter(io.Discard)
		for _, b := range batches {
			cur := b.Cursor()
			for i := 0; i < b.Len(); i++ {
				if err := w.Write(cur.Row(i)); err != nil {
					return fmt.Errorf("codec replay: %w", err)
				}
			}
		}
		if err := w.Flush(); err != nil {
			return fmt.Errorf("codec replay: %w", err)
		}
		done += w.Bytes()
	}
	lp.m["tuple.encode_text_mb_s"] = float64(done) / 1e6 / time.Since(start).Seconds()
	return nil
}

// traceFile is the written span file.
type traceFile struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Spans    []spanRec `json:"spans"`
}

// writeSpans writes the collected spans to <outDir>/trace_<workload>.json.
func (lp *layerProbe) writeSpans() (string, error) {
	path := filepath.Join(lp.in.rc.outDir, "trace_"+lp.in.sp.name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(traceFile{Workload: lp.in.sp.name, Seed: lp.in.rc.seed, Spans: lp.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
