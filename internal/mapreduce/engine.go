// Package mapreduce executes physical MapReduce jobs: it splits inputs,
// runs map tasks over the map segment of the job's plan, partitions the
// keyed output and groups it in key order, runs reduce tasks over the
// reduce segment, and writes part files to the DFS — a faithful,
// laptop-scale Hadoop.
//
// Every task's byte and record counts are scaled by the configured
// SimScale and fed through the cluster cost model, so each job reports
// both its real wall-clock time and its simulated "time on Hadoop".
package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/tuple"
)

// Config tunes the engine.
type Config struct {
	// Topology is the simulated cluster layout.
	Topology cluster.Topology
	// Cost converts task workloads to simulated durations.
	Cost cluster.CostModel
	// SimScale is the ratio of simulated bytes to actual ones; 1 means
	// "simulate exactly what ran".
	SimScale float64
	// RecordScale is the ratio of simulated records to actual ones;
	// it defaults to SimScale but should be set separately when the
	// scaled-down rows are narrower or wider than the originals.
	RecordScale float64
	// SplitSize is the simulated input split size (default 128 MiB).
	SplitSize int64
	// Parallelism bounds the tasks running at once (default NumCPU).
	// The bound is engine-wide: concurrent Run calls — the driver's DAG
	// scheduler and multiple client queries — share one pool of task
	// slots instead of each oversubscribing the CPU. Each phase of a job
	// runs its tasks on at most Parallelism worker goroutines.
	Parallelism int
	// MaxCachedBatchBytes bounds the decoded-dataset batch cache. Zero
	// selects DefaultMaxCachedBatchBytes; a negative value disables the
	// cache entirely.
	MaxCachedBatchBytes int64
}

// DefaultConfig mirrors the paper's testbed with no scale-up.
func DefaultConfig() Config {
	return Config{
		Topology:  cluster.DefaultTopology(),
		Cost:      cluster.DefaultCostModel(),
		SimScale:  1,
		SplitSize: 128 << 20,
	}
}

// Engine executes jobs against a DFS. Run is safe for concurrent use:
// each call keeps its state on its own stack, and the tasks of all
// in-flight jobs share the engine-wide Parallelism slots.
type Engine struct {
	fs    dfs.Backend
	cfg   Config
	sem   chan struct{} // engine-wide task slots
	cache *BatchCache   // nil when MaxCachedBatchBytes < 0
}

// New returns an engine over fs.
func New(fs dfs.Backend, cfg Config) *Engine {
	if cfg.SimScale <= 0 {
		cfg.SimScale = 1
	}
	if cfg.RecordScale <= 0 {
		cfg.RecordScale = cfg.SimScale
	}
	if cfg.SplitSize <= 0 {
		cfg.SplitSize = 128 << 20
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.NumCPU()
	}
	if cfg.Topology.Workers <= 0 {
		cfg.Topology = cluster.DefaultTopology()
	}
	e := &Engine{fs: fs, cfg: cfg, sem: make(chan struct{}, cfg.Parallelism)}
	if cfg.MaxCachedBatchBytes >= 0 {
		e.cache = NewBatchCache(fs, cfg.MaxCachedBatchBytes)
	}
	return e
}

// FS returns the engine's file system.
func (e *Engine) FS() dfs.Backend { return e.fs }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// OutputStat describes one Store destination of an executed job.
type OutputStat struct {
	SimBytes int64
	Records  int64
}

// JobStats aggregates one job execution.
type JobStats struct {
	JobID    string
	MapTasks int
	RedTasks int

	InputSimBytes   int64
	InputRecords    int64
	ShuffleSimBytes int64
	OutputSimBytes  int64 // the job's primary output
	OutputRecords   int64

	// Outputs covers every Store path the job wrote (primary and the
	// sub-job side stores ReStore injects).
	Outputs map[string]OutputStat

	AvgMapTime time.Duration
	AvgRedTime time.Duration
	SimTime    time.Duration
	WallTime   time.Duration

	// Where the text codec's share of WallTime went, summed over the
	// job's tasks (tasks run concurrently, so the sum can exceed
	// WallTime): DecodeTime is decoding input part files the batch cache
	// did not hold, EncodeTime is encoding output part files and writing
	// them to the DFS.
	DecodeTime time.Duration
	EncodeTime time.Duration
}

// rec is one shuffled record. hash is tuple.Hash(key): the map task
// computes it once to pick the record's partition and carries it, so
// the reducer groups by it (groupByKey) without hashing the key again.
// A combined GROUP's record points at its key's partial states instead
// of carrying a tuple (a pointer: a record that carries a tuple pays one
// word for it, not a slice header). bytes is the record's shuffle
// volume. branch and bytes are int32s side by side, so a record is 64
// bytes; sums of bytes widen to int64.
type rec struct {
	key    tuple.Value
	hash   uint64
	branch int32
	bytes  int32
	t      tuple.Tuple
	states *[]aggState
}

// Progress observes one running job's task completions: done counts
// map and reduce tasks finished so far out of total, and simSoFar is
// the accumulated simulated execution time of those tasks (a running
// approximation of the job's eventual SimTime, which additionally
// models wave scheduling and startup). Calls are serialized.
type Progress func(done, total int, simSoFar time.Duration)

// progressTracker serializes Progress callbacks across the concurrent
// task workers of one job.
type progressTracker struct {
	mu    sync.Mutex
	fn    Progress
	done  int
	total int
	sim   time.Duration
}

// tick records one completed task. The callback runs under the
// tracker's lock so deliveries are serialized and monotonic, as the
// Progress contract promises; callbacks must therefore be quick and
// must not call back into the engine.
func (p *progressTracker) tick(taskTime time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	p.sim += taskTime
	p.fn(p.done, p.total, p.sim)
}

// Run executes the job under ctx and returns its statistics; progress,
// when non-nil, fires after every completed map and reduce task, making
// long jobs observable through the query-handle Status API. Cancelling
// the context aborts the job promptly: tasks that have not yet acquired
// an engine task slot never start (their slots go back to the
// engine-wide pool for other in-flight jobs), already-running tasks
// finish their unit of work, and the returned error wraps ctx.Err(). A
// cancelled job writes no statistics and must not be registered in the
// repository.
func (e *Engine) Run(ctx context.Context, job *physical.Job, progress Progress) (*JobStats, error) {
	if err := job.Plan.Validate(); err != nil {
		return nil, fmt.Errorf("mapreduce: job %s: %w", job.ID, err)
	}
	seg, err := segments(job.Plan)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %s: %w", job.ID, err)
	}
	return e.run(ctx, job, seg, progress)
}

// run executes job as seg splits it.
func (e *Engine) run(ctx context.Context, job *physical.Job, seg *segmentation, progress Progress) (*JobStats, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: job %s: %w", job.ID, err)
	}
	stats := &JobStats{JobID: job.ID, Outputs: map[string]OutputStat{}}
	splits, err := e.makeSplits(job.Plan, &stats.DecodeTime)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %s: %w", job.ID, err)
	}
	// Hadoop refuses to run a job whose output directory exists; here
	// outputs are cleared instead so reruns replace rather than
	// accumulate part files. Inputs are already in memory (makeSplits),
	// so clearing is safe even when a job overwrites its own input.
	// A concurrent run of the same job may clear the output between
	// Exists and the delete; it is cleared either way.
	for _, op := range job.Plan.Ops() {
		if op.Kind == physical.KStore && e.fs.Exists(op.Path) {
			if err := e.fs.Delete(op.Path); err != nil && !errors.Is(err, dfs.ErrNotExist) {
				return nil, fmt.Errorf("mapreduce: clearing output %s: %w", op.Path, err)
			}
		}
	}

	numRed := job.NumReducers
	if seg.shuffle == nil {
		numRed = 0
	} else if numRed <= 0 {
		numRed = 1
	}

	var tracker *progressTracker
	if progress != nil {
		tracker = &progressTracker{fn: progress, total: len(splits) + numRed}
	}

	mapResults, err := e.runMapPhase(ctx, job, seg, splits, numRed, stats, tracker)
	if err != nil {
		return nil, err
	}
	var mapTimes, redTimes []time.Duration
	for _, mr := range mapResults {
		mapTimes = append(mapTimes, e.cfg.Cost.TaskTime(mr.work))
	}
	if seg.shuffle != nil {
		redTimes, err = e.runReducePhase(ctx, job, seg, mapResults, numRed, stats, tracker)
		if err != nil {
			return nil, err
		}
	}

	stats.MapTasks = len(mapResults)
	stats.RedTasks = numRed
	stats.AvgMapTime = avg(mapTimes)
	stats.AvgRedTime = avg(redTimes)
	numOutputs := 0
	for _, op := range job.Plan.Ops() {
		if op.Kind == physical.KStore {
			numOutputs++
		}
	}
	stats.SimTime = e.cfg.Cost.JobTime(mapTimes, redTimes, numOutputs, e.cfg.Topology)
	stats.WallTime = time.Since(start)
	if out, ok := stats.Outputs[job.OutputPath]; ok {
		stats.OutputSimBytes = out.SimBytes
		stats.OutputRecords = out.Records
	}
	return stats, nil
}

func avg(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// segmentation splits the plan at the shuffle boundary. It is built
// once per job, and the interpreter indexes its successor slices by op
// ID for every row at every op.
type segmentation struct {
	shuffle *physical.Op
	pkg     *physical.Op
	// mapSide holds the ops map tasks run, everything but the shuffle
	// and its descendants; redSide holds those.
	mapSide, redSide side
	// counts of pipeline ops per segment for the CPU cost model.
	mapOps int
	redOps int
	// combine is non-nil when the job qualifies for Pig's algebraic
	// combiner, and distinct is set for a DISTINCT, whose map tasks ship
	// each key once (see combine.go).
	combine  *combineSpec
	distinct bool
	// feeds holds each Load's map feed, by Load ID.
	feeds map[int]feed
}

// side is what the tasks of one side of the shuffle run.
type side struct {
	// succ[id] are op id's successors on this side, in ID order; it
	// has an entry for every ID in the plan.
	succ [][]*physical.Op
	// stores are the Store ops on this side, sorted by ID: every task
	// writes one part file per Store.
	stores []*physical.Op
}

func segments(p *physical.Plan) (*segmentation, error) {
	all := p.Ops()
	if len(all) == 0 {
		return nil, fmt.Errorf("empty plan")
	}
	succ := p.Successors()
	s := &segmentation{}
	for _, op := range all {
		if op.Kind == physical.KShuffle {
			if s.shuffle != nil {
				return nil, fmt.Errorf("plan has more than one shuffle")
			}
			s.shuffle = op
		}
	}
	if s.shuffle != nil {
		for _, id := range succ[s.shuffle.ID] {
			op := p.Op(id)
			if op.Kind != physical.KPackage {
				return nil, fmt.Errorf("shuffle successor %d is %s, want Package", id, op.Kind)
			}
			if s.pkg != nil {
				return nil, fmt.Errorf("shuffle feeds more than one Package")
			}
			s.pkg = op
		}
		if s.pkg == nil {
			return nil, fmt.Errorf("shuffle has no Package")
		}
		s.combine = detectCombine(p, succ, s.pkg)
		s.distinct = s.pkg.Mode == physical.PkgDistinct
	}
	// Reduce side = descendants of the shuffle; everything else is map.
	reduceSet := map[int]bool{}
	if s.shuffle != nil {
		var mark func(id int)
		mark = func(id int) {
			if reduceSet[id] {
				return
			}
			reduceSet[id] = true
			for _, nxt := range succ[id] {
				mark(nxt)
			}
		}
		mark(s.shuffle.ID)
	}
	n := all[len(all)-1].ID + 1
	s.mapSide.succ = make([][]*physical.Op, n)
	s.redSide.succ = make([][]*physical.Op, n)
	for _, op := range all {
		sd := &s.mapSide
		if reduceSet[op.ID] {
			sd = &s.redSide
			s.redOps++
		} else {
			s.mapOps++
		}
		for _, id := range succ[op.ID] {
			if reduceSet[id] == reduceSet[op.ID] {
				sd.succ[op.ID] = append(sd.succ[op.ID], p.Op(id))
			}
		}
		if op.Kind == physical.KStore {
			sd.stores = append(sd.stores, op)
		}
	}
	s.feeds = map[int]feed{}
	for _, op := range all {
		if op.Kind == physical.KLoad {
			s.feeds[op.ID] = s.mapFeed(op.ID)
		}
	}
	return s, nil
}

// feed is how a map task hands one Load's rows to its segment. The zero
// value, every column in a fresh tuple per row, is always correct.
type feed struct {
	// reuse: rows may share one buffer, because no op on a map path from
	// the Load retains its input tuple.
	reuse bool
	// cols are the columns the segment reads, ascending, when reuse is
	// set; nil reads every column.
	cols []int
}

// mapFeed walks the map segment from the Load loadID and returns its
// feed. A ForEach builds a fresh tuple from the columns its expressions
// read, ending both the buffer's reach and the walk. A Filter reads its
// condition's columns and passes the tuple on, as Union, Split and
// Limit do without reading any. Any other op — Store appends its input
// to the task writer, LocalRearrange hands it to the shuffle — keeps
// the tuple, so the feed is the zero one. An expression whose columns
// cannot be listed reads every column.
func (s *segmentation) mapFeed(loadID int) feed {
	cols := []int{}
	all := false
	read := func(e expr.Expr) {
		c, ok := expr.Columns(e)
		all = all || !ok
		cols = append(cols, c...)
	}
	seen := map[int]bool{}
	var walk func(id int) bool
	walk = func(id int) bool {
		for _, op := range s.mapSide.succ[id] {
			if seen[op.ID] {
				continue
			}
			seen[op.ID] = true // a DAG: a shared descendant is walked once
			switch op.Kind {
			case physical.KForEach:
				for _, e := range op.Exprs {
					read(e)
				}
				continue
			case physical.KFilter:
				read(op.Cond)
			case physical.KUnion, physical.KSplit, physical.KLimit:
			default:
				return false
			}
			if !walk(op.ID) {
				return false
			}
		}
		return true
	}
	switch {
	case !walk(loadID):
		return feed{}
	case all:
		return feed{reuse: true}
	}
	slices.Sort(cols)
	// A negative reference reads nothing (expr.Col).
	cols = slices.DeleteFunc(slices.Compact(cols), func(c int) bool { return c < 0 })
	return feed{reuse: true, cols: cols}
}

// split is one map task's input slice: rows [lo, hi) of one part
// file's columnar batch.
type split struct {
	loadID int
	batch  *tuple.Batch
	lo, hi int
	bytes  int64 // actual bytes attributed to this slice
}

// loadDataset decodes every part file of the dataset at path into
// columnar batches, serving from (and filling) cache when enabled. The
// version stamp is taken before the reads and re-checked by Put, so a
// concurrent writer can only cause a skipped insert, never a stale
// entry.
func (e *Engine) loadDataset(path string, decode *time.Duration) (*cachedDataset, error) {
	if e.cache != nil {
		if ds := e.cache.Get(path); ds != nil {
			return ds, nil
		}
	}
	v0 := e.fs.Version(path)
	files := e.fs.List(path)
	if len(files) == 0 {
		return nil, fmt.Errorf("input %q does not exist", path)
	}
	ds := &cachedDataset{path: path, version: v0}
	for _, f := range files {
		b, err := e.decodeFile(f, decode)
		if err != nil {
			return nil, err
		}
		ds.add(f, b)
	}
	if e.cache != nil {
		e.cache.Put(ds)
	}
	return ds, nil
}

// decodeFile reads one part file and decodes it, adding the decode's
// wall-clock to *decode. The read is dfs.ReadString, so the batch's
// string fields slice the DFS's own immutable contents: a cached batch
// holds no second copy of the file's text.
func (e *Engine) decodeFile(f string, decode *time.Duration) (*tuple.Batch, error) {
	data, err := dfs.ReadString(e.fs, f)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	b, err := tuple.DecodeTextBatchString(data)
	*decode += time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", f, err)
	}
	return b, nil
}

// makeSplits decodes every Load's part files (through the batch cache
// when enabled) and slices them into map inputs of roughly SplitSize
// simulated bytes. Split sizing works from each batch's source byte
// length, so cached and uncached runs produce identical splits — and
// therefore identical task counts, costs, and outputs.
func (e *Engine) makeSplits(p *physical.Plan, decode *time.Duration) ([]split, error) {
	var out []split
	for _, op := range p.Ops() {
		if op.Kind != physical.KLoad {
			continue
		}
		var ds *cachedDataset
		var err error
		if op.Files != nil {
			ds, err = e.loadFiles(op.Path, op.Files, decode)
		} else {
			ds, err = e.loadDataset(op.Path, decode)
		}
		if err != nil {
			return nil, err
		}
		for _, b := range ds.batches {
			actualBytes := b.SrcBytes()
			nrows := b.Len()
			simBytes := int64(float64(actualBytes) * e.cfg.SimScale)
			n := int((simBytes + e.cfg.SplitSize - 1) / e.cfg.SplitSize)
			if n < 1 {
				n = 1
			}
			if n > nrows && nrows > 0 {
				n = nrows
			}
			if nrows == 0 {
				out = append(out, split{loadID: op.ID, bytes: actualBytes})
				continue
			}
			per := (nrows + n - 1) / n
			for i := 0; i < nrows; i += per {
				j := i + per
				if j > nrows {
					j = nrows
				}
				chunkBytes := actualBytes * int64(j-i) / int64(nrows)
				out = append(out, split{loadID: op.ID, batch: b, lo: i, hi: j, bytes: chunkBytes})
			}
		}
	}
	return out, nil
}

// loadFiles decodes exactly the listed part files of the dataset at
// path — the restricted view a Load with Files set executes over. When
// the full dataset is already cached its batches are sliced instead of
// re-read, so a delta run whose base is warm touches the DFS only for
// the files it actually needs; a restricted view is never inserted
// into the cache (it is not the dataset).
func (e *Engine) loadFiles(path string, files []string, decode *time.Duration) (*cachedDataset, error) {
	ds := &cachedDataset{path: path}
	if len(files) == 0 {
		return ds, nil
	}
	want := make(map[string]bool, len(files))
	for _, f := range files {
		want[f] = true
	}
	if e.cache != nil {
		if full := e.cache.Get(path); full != nil {
			for i, f := range full.files {
				if !want[f] {
					continue
				}
				ds.add(f, full.batches[i])
			}
			if len(ds.files) == len(want) {
				return ds, nil
			}
			// The cached view predates some wanted files; read directly.
			ds = &cachedDataset{path: path}
		}
	}
	sorted := append([]string{}, files...)
	sort.Strings(sorted)
	for _, f := range sorted {
		b, err := e.decodeFile(f, decode)
		if err != nil {
			return nil, err
		}
		ds.add(f, b)
	}
	return ds, nil
}

// CacheStats snapshots the engine's decoded-dataset cache counters.
func (e *Engine) CacheStats() BatchCacheStats { return e.cache.Stats() }

// CachedPaths lists the datasets the decoded-dataset cache holds, sorted.
func (e *Engine) CachedPaths() []string { return e.cache.Paths() }

// mapResult carries one map task's shuffle output and cost accounting.
// The reducers read parts after the map task has returned its scratch
// (taskScratch, in scratch.go) to the pool, so parts and the partial
// states its records point at are the task's own, allocated once at
// their exact size; they never alias the scratch, which the next task
// overwrites.
type mapResult struct {
	parts   [][]rec // per reduce partition
	work    cluster.TaskWork
	outs    map[string]OutputStat
	records int64
	encode  time.Duration
}

// partitionOf places a record in a shuffle partition from its key's
// hash, tuple.Hash(key): its reducer is a pure function of its key and
// the reducer count, so cached and uncached, cold and warm runs place
// every record in the same partition.
func partitionOf(hash uint64, numRed int) int {
	return int(hash % uint64(numRed))
}

// runTasks runs task(i) for every i in [0, n) on min(n, Parallelism)
// worker goroutines, which take the indices in order. Each task holds
// one of the engine-wide slots while it runs, so Parallelism bounds the
// running tasks of every in-flight job together. A task that finds ctx
// done before it gets a slot does not run and fails with ctx.Err().
// runTasks returns when every task has run or failed, with the lowest
// failed index and its error (nil if none failed).
func (e *Engine) runTasks(ctx context.Context, n int, task func(i int) error) (int, error) {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, e.cfg.Parallelism) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if errs[i] = ctx.Err(); errs[i] != nil {
					continue
				}
				select {
				case e.sem <- struct{}{}:
				case <-ctx.Done():
					errs[i] = ctx.Err()
					continue
				}
				errs[i] = task(i)
				<-e.sem
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}

func (e *Engine) runMapPhase(ctx context.Context, job *physical.Job, seg *segmentation, splits []split, numRed int, stats *JobStats, tracker *progressTracker) ([]mapResult, error) {
	results := make([]mapResult, len(splits))
	_, err := e.runTasks(ctx, len(splits), func(i int) error {
		var err error
		if results[i], err = e.runMapTask(seg, splits[i], i, numRed); err == nil {
			tracker.tick(e.cfg.Cost.TaskTime(results[i].work))
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %s: %w", job.ID, err)
	}
	for i := range results {
		stats.InputSimBytes += int64(float64(splits[i].bytes) * e.cfg.SimScale)
		stats.InputRecords += int64(float64(results[i].records) * e.cfg.RecordScale)
		stats.ShuffleSimBytes += int64(float64(results[i].work.ShuffleBytes))
		mergeOutputs(stats.Outputs, results[i].outs)
		stats.EncodeTime += results[i].encode
	}
	return results, nil
}

func mergeOutputs(dst map[string]OutputStat, src map[string]OutputStat) {
	for p, s := range src {
		cur := dst[p]
		cur.SimBytes += s.SimBytes
		cur.Records += s.Records
		dst[p] = cur
	}
}

func (e *Engine) runMapTask(seg *segmentation, sp split, taskIdx, numRed int) (mapResult, error) {
	mr := mapResult{outs: map[string]OutputStat{}}
	s := getScratch()
	defer s.release()
	px := newExec(seg, false, s)
	px.suffix = fmt.Sprintf("part-m-%05d", taskIdx)
	var aggs []expr.Agg
	if seg.combine != nil {
		aggs = seg.combine.aggs
	}
	if seg.combine != nil || seg.distinct {
		// Pig's combiners: pre-aggregate (or, for a DISTINCT, drop
		// repeats of) each key in the map task.
		px.keyed = func(branch int, key tuple.Value, t tuple.Tuple) {
			s.combine(aggs, key, t)
		}
	} else if numRed > 0 {
		px.keyed = func(branch int, key tuple.Value, t tuple.Tuple) {
			// Shuffle volume accounting approximates Pig's compact
			// serialization with the text width of value plus key.
			n := int32(tuple.EncodeTextLen(t) + tuple.TextLen(key) + 2)
			s.staged = append(s.staged, rec{key: key, hash: tuple.Hash(key), branch: int32(branch), t: t, bytes: n})
		}
	}

	// Feed rows through a reusable cursor that fills only the columns
	// the segment reads, when the Load's feed allows it.
	row := sp.batch.Row
	if f := seg.feeds[sp.loadID]; sp.batch != nil && f.reuse {
		if f.cols != nil {
			row = sp.batch.ColumnCursor(f.cols).Row
		} else {
			row = sp.batch.Cursor().Row
		}
	}
	for i := sp.lo; i < sp.hi; i++ {
		mr.records++
		if err := px.push(sp.loadID, row(i)); err != nil {
			return mr, err
		}
	}
	if err := px.close(e.fs, e.cfg.SimScale, mr.outs); err != nil {
		return mr, err
	}
	mr.encode = px.encode
	switch {
	case seg.combine != nil || seg.distinct:
		mr.parts = s.drainCombined(len(aggs), numRed)
	case numRed > 0:
		mr.parts = s.partition(numRed)
	}

	var shuffleBytes, shuffleRecs int64
	for _, p := range mr.parts {
		for _, r := range p {
			shuffleBytes += int64(r.bytes)
			shuffleRecs++
		}
	}
	var storeBytes int64
	for _, o := range mr.outs {
		storeBytes += o.SimBytes
	}
	mr.work = cluster.TaskWork{
		ReadBytes:    int64(float64(sp.bytes) * e.cfg.SimScale),
		ShuffleBytes: int64(float64(shuffleBytes) * e.cfg.SimScale),
		StoreBytes:   storeBytes,
		Records:      int64(float64(mr.records) * e.cfg.RecordScale),
		PipelineOps:  seg.mapOps,
		SortRecords:  int64(float64(shuffleRecs) * e.cfg.RecordScale),
		NumStores:    len(px.stores),
	}
	return mr, nil
}

func (e *Engine) runReducePhase(ctx context.Context, job *physical.Job, seg *segmentation, mapResults []mapResult, numRed int, stats *JobStats, tracker *progressTracker) ([]time.Duration, error) {
	times := make([]time.Duration, numRed)
	outs := make([]map[string]OutputStat, numRed)
	encode := make([]time.Duration, numRed)
	r, err := e.runTasks(ctx, numRed, func(r int) error {
		outs[r] = map[string]OutputStat{}
		var err error
		if times[r], encode[r], err = e.runReduceTask(seg, mapResults, r, outs[r]); err == nil {
			tracker.tick(times[r])
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %s reduce %d: %w", job.ID, r, err)
	}
	for r := 0; r < numRed; r++ {
		mergeOutputs(stats.Outputs, outs[r])
		stats.EncodeTime += encode[r]
	}
	return times, nil
}

// runReduceTask runs reduce task taskIdx over its partition of every
// map task's output. It pushes the key groups in the order Hadoop's
// sort delivers them — by key (respecting ORDER BY direction), then
// branch, each (key, branch) run in map-task order — which groupByKey
// builds without sorting the records. It returns the task's simulated
// time and the wall-clock its close spent encoding.
func (e *Engine) runReduceTask(seg *segmentation, mapResults []mapResult, taskIdx int, outStats map[string]OutputStat) (time.Duration, time.Duration, error) {
	s := getScratch()
	defer s.release()
	for _, mr := range mapResults {
		s.parts = append(s.parts, mr.parts[taskIdx])
	}
	recs, starts := s.groupByKey(s.parts, seg.pkg.Desc)

	px := newExec(seg, true, s)
	px.suffix = fmt.Sprintf("part-r-%05d", taskIdx)

	var shuffleBytes int64
	for i := range recs {
		shuffleBytes += int64(recs[i].bytes)
	}
	var acc []aggState // the combiner's merge states, reused per group
	if seg.combine != nil {
		s.states = sized(s.states, len(seg.combine.aggs))
		acc = s.states
	}

	for g, lo := range starts {
		hi := len(recs)
		if g+1 < len(starts) {
			hi = starts[g+1]
		}
		group := recs[lo:hi]
		var err error
		if seg.combine != nil {
			err = px.push(seg.combine.feID, seg.combine.row(group, acc))
		} else {
			err = e.emitGroup(px, seg, group)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if err := px.close(e.fs, e.cfg.SimScale, outStats); err != nil {
		return 0, 0, err
	}

	var storeBytes int64
	for _, o := range outStats {
		storeBytes += o.SimBytes
	}
	scale := e.cfg.SimScale
	work := cluster.TaskWork{
		ShuffleBytes: int64(float64(shuffleBytes) * scale),
		StoreBytes:   storeBytes,
		Records:      int64(float64(len(recs)) * e.cfg.RecordScale),
		PipelineOps:  seg.redOps,
		SortRecords:  int64(float64(len(recs)) * e.cfg.RecordScale),
		NumStores:    len(px.stores),
	}
	return e.cfg.Cost.TaskTime(work), px.encode, nil
}

// emitGroup packages one key group and pushes it through the reduce
// segment.
func (e *Engine) emitGroup(px *exec, seg *segmentation, group []rec) error {
	pkg := seg.pkg
	switch pkg.Mode {
	case physical.PkgGroup:
		// groupByKey orders a group's records by branch, so each bag is
		// one run of a single slice, capped at its run so a later Add
		// cannot overwrite the next bag. Branches past NumInputs sort
		// last and are left out.
		all := make([]tuple.Tuple, 0, len(group))
		bags := make([]tuple.Bag, pkg.NumInputs)
		out := make(tuple.Tuple, 1+pkg.NumInputs)
		out[0] = group[0].key
		i := 0
		for b := range bags {
			lo := len(all)
			for ; i < len(group) && group[i].branch == int32(b); i++ {
				all = append(all, group[i].t)
			}
			if len(all) > lo {
				bags[b].Tuples = all[lo:len(all):len(all)]
			}
			out[1+b] = &bags[b]
		}
		return px.push(pkg.ID, out)
	case physical.PkgDistinct:
		kt, ok := group[0].key.(tuple.Tuple)
		if !ok {
			kt = tuple.Tuple{group[0].key}
		}
		return px.push(pkg.ID, kt)
	case physical.PkgFlat:
		for _, r := range group {
			if err := px.push(pkg.ID, r.t); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown package mode %v", pkg.Mode)
}
