package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/dfs"
	"repro/internal/exp"
	"repro/internal/tuple"
)

// Load model constants (see README.md).
const (
	// workflowWorkers is both the pinned GOMAXPROCS and each query's
	// concurrent-job bound: the load is sized to the 2 cores of the
	// reference box whatever machine runs it.
	workflowWorkers = 2
	fullPasses      = 5
	quickPasses     = 3
	// setupRepeats is how many times a full run sets the workload up
	// (fresh backend, datagen, Recover, warm-up); setup_s is the median.
	setupRepeats = 3
)

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    int64
	seconds float64
	quick   bool
	traced  bool
	outDir  string
}

func (rc runConfig) passes() int {
	if rc.quick {
		return quickPasses
	}
	return fullPasses
}

// perPass is the fixed number of queries per pass: the calibrated rate
// times the time budget, rounded to whole groups — never fewer than
// one group per client.
func (rc runConfig) perPass(sp *spec, clients int) int {
	budget := sp.qps * rc.seconds
	if rc.quick {
		budget /= 10
	}
	groups := int(math.Round(budget / float64(rc.passes()) / float64(sp.group)))
	if min := (clients + sp.group - 1) / sp.group; groups < min {
		groups = min
	}
	return groups * sp.group
}

func (rc runConfig) clientCount(sp *spec) int {
	if rc.traced {
		return 1
	}
	return sp.clients
}

// instance is one set-up system under test.
type instance struct {
	sp *spec
	rc runConfig
	// raw is the real backend (in memory on every workload; README.md,
	// "Backend"); the benchmark reads outputs and sizes through it so
	// its own checks never show in the meters. fs is what the system was
	// handed: raw, or the metering wrapper when traced.
	raw     *dfs.FS
	metered *meteredFS
	cfg     restore.Config
	sys     *restore.System
	door    door
}

func (in *instance) fs() dfs.Backend {
	if in.metered != nil {
		return in.metered
	}
	return in.raw
}

// config builds the workload's restore.Config over generated data.
func (sp *spec) config(traced bool, simScale, recordScale float64) restore.Config {
	cfg := restore.DefaultConfig()
	cfg.SimScale, cfg.RecordScale = simScale, recordScale
	cfg.WorkflowWorkers = workflowWorkers
	cfg.NamespaceRoot = sp.nsRoot
	cfg.Durability.Enabled = sp.durable
	cfg.Options = sp.opts
	cfg.Options.DisableTrace = !traced
	if sp.tune != nil {
		sp.tune(&cfg)
	}
	return cfg
}

// setup is everything before the first measured op: backend open, data
// generation, Recover, front door, warm-up queries.
func setup(sp *spec, rc runConfig) (*instance, error) {
	in := &instance{sp: sp, rc: rc, raw: dfs.New()}
	simScale, recordScale, err := sp.generate(in.raw, rc.seed, rc.quick)
	if err != nil {
		return nil, fmt.Errorf("generating %s inputs: %w", sp.name, err)
	}
	in.cfg = sp.config(rc.traced, simScale, recordScale)
	if rc.traced {
		in.metered = newMeteredFS(in.raw, sp.nsRoot)
	}
	if err := in.open(); err != nil {
		return nil, err
	}
	for _, o := range sp.warm(rc.seed) {
		if out := in.door.run(0, o); out.err != nil {
			in.close()
			return nil, fmt.Errorf("warm-up %s: %w", o.name, out.err)
		}
	}
	return in, nil
}

// open recovers the System over the instance's backend and opens the
// front door.
func (in *instance) open() error {
	sys, err := restore.Recover(in.cfg, in.fs())
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	in.sys = sys
	if in.sp.http {
		d, err := newHTTPDoor(sys, in.cfg.Options, in.rc.clientCount(in.sp), in.rc.traced)
		if err != nil {
			sys.Close()
			return err
		}
		in.door = d
	} else {
		in.door = &directDoor{sys: sys, traced: in.rc.traced}
	}
	return nil
}

// close closes the front door and the System. The backend stays: the
// recovery probe reopens a System over it.
func (in *instance) close() {
	if in.door != nil {
		_ = in.door.close() // closes the System too
		in.door, in.sys = nil, nil
	}
}

// digest canonicalises a dataset's rows — decoded, re-encoded with
// tuple.EncodeText, sorted — and hashes them. Read through the raw
// backend, outside every timed region.
func digest(fs dfs.Backend, path string) (string, error) {
	files := fs.List(path)
	if len(files) == 0 {
		return "", fmt.Errorf("dataset %q does not exist", path)
	}
	var rows []string
	for _, f := range files {
		data, err := fs.ReadFile(f)
		if err != nil {
			return "", err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line != "" {
				rows = append(rows, tuple.EncodeText(tuple.DecodeText(line)))
			}
		}
	}
	sort.Strings(rows)
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checked is one sampled output awaiting the oracle.
type checked struct {
	pass, client, index int
	name                string
	digest              string
}

// passStats is one pass of the measured phase.
type passStats struct {
	Queries  int       `json:"queries"`
	WallS    float64   `json:"wall_s"`
	P50Ms    float64   `json:"p50_ms"`
	P95Ms    float64   `json:"p95_ms"`
	QPS      float64   `json:"qps"`
	AppendMs float64   `json:"append_ms,omitempty"`
	SweepMs  float64   `json:"sweep_ms,omitempty"`
	LatSumMs float64   `json:"latency_sum_ms"`
	lat      []float64 // ms, sorted
}

// counts are the deterministic tallies of a measured phase, taken from
// results and public stats snapshots in traced and untraced runs alike.
// On a 1-client workload they repeat exactly for a given seed.
type counts struct {
	Queries      int    `json:"queries"`
	Failed       int    `json:"failed"`
	Rejected     int    `json:"rejected"`
	JobsRun      int    `json:"jobs_run"`
	JobsReused   int    `json:"jobs_reused"`
	Rewrites     int    `json:"rewrites"`
	Reusing      int    `json:"queries_with_reuse"`
	Stored       int    `json:"entries_stored"`
	SimTimeNs    int64  `json:"sim_time_ns"`
	Appends      int    `json:"appends"`
	Sweeps       int    `json:"sweeps"`
	DFSRead      int64  `json:"dfs_bytes_read"`
	DFSWritten   int64  `json:"dfs_bytes_written"`
	CacheHits    int64  `json:"cache_hits"`
	CacheMisses  int64  `json:"cache_misses"`
	Probes       int64  `json:"probes"`
	Refreshes    int64  `json:"refreshes"`
	RefreshFails int64  `json:"refresh_failed"`
	Evictions    int64  `json:"evictions"`
	Checked      int    `json:"oracle_checked"`
	Mismatches   int    `json:"oracle_mismatches"`
	OutputDigest string `json:"output_digest"`
}

// phase is the outcome of one measured phase.
type phase struct {
	passes []passStats
	counts counts
	checks []checked
	lat    []float64 // pooled, ms, sorted
	cpu    time.Duration
	wall   time.Duration
	rssMB  float64
	usage  int64 // StorageStats.UsageBytes at the end
	inputs int64 // generated input bytes at the end
	errs   []string
	// httpOverheadMs holds client latency minus the engine's own
	// submit→done time, per query (HTTP door only).
	httpOverheadMs []float64
	layers         *layerProbe // traced only
}

// snapshotStats is the public stats surface read before and after a
// phase.
type snapshotStats struct {
	storage restore.StorageStats
	matcher restore.MatcherStats
	durable restore.DurabilityStats
	cache   restore.BatchCacheStats
	delta   restore.DeltaStats
	read    int64
	written int64
	mem     runtime.MemStats
}

func (in *instance) stats() snapshotStats {
	s := snapshotStats{
		storage: in.sys.StorageStats(),
		matcher: in.sys.MatcherStats(),
		durable: in.sys.DurabilityStats(),
		cache:   in.sys.BatchCacheStats(),
		delta:   in.sys.DeltaStats(),
		read:    in.raw.BytesRead(),
		written: in.raw.BytesWritten(),
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runPhase runs the measured ops: passes in order, each pass's clients
// concurrently, every client a closed loop. Only the ops themselves are
// timed; output reads for the oracle and trace collection happen
// between them with the client's clock stopped.
func (in *instance) runPhase(stream [][][]op) *phase {
	ph := &phase{}
	if in.rc.traced {
		ph.layers = newLayerProbe(in)
	}
	before := in.stats()
	cpu0 := cpuTime()
	t0 := time.Now()
	for p := range stream {
		ph.passes = append(ph.passes, in.runPass(ph, p, stream[p]))
	}
	ph.wall = time.Since(t0)
	ph.cpu = cpuTime() - cpu0
	ph.rssMB = peakRSSMB()
	after := in.stats()

	c := &ph.counts
	c.DFSRead, c.DFSWritten = after.read-before.read, after.written-before.written
	c.CacheHits, c.CacheMisses = after.cache.Hits-before.cache.Hits, after.cache.Misses-before.cache.Misses
	c.Probes = after.matcher.Probes - before.matcher.Probes
	c.Refreshes = after.delta.Refreshes - before.delta.Refreshes
	c.RefreshFails = after.delta.Failed - before.delta.Failed
	c.Evictions = after.storage.Evictions - before.storage.Evictions
	sort.Slice(ph.checks, func(i, j int) bool {
		a, b := ph.checks[i], ph.checks[j]
		if a.pass != b.pass {
			return a.pass < b.pass
		}
		if a.client != b.client {
			return a.client < b.client
		}
		return a.index < b.index
	})
	h := sha256.New()
	for _, ck := range ph.checks {
		fmt.Fprintf(h, "%s %s\n", ck.name, ck.digest)
	}
	c.OutputDigest = hex.EncodeToString(h.Sum(nil))
	ph.usage = after.storage.UsageBytes
	ph.inputs = in.raw.Size(inputRoot)
	sort.Float64s(ph.lat)
	if ph.layers != nil {
		ph.layers.finish(ph, before, after)
	}
	return ph
}

// runPass runs one pass: a barrier, then every client's loop.
func (in *instance) runPass(ph *phase, p int, clients [][]op) passStats {
	var (
		mu     sync.Mutex
		wg     sync.WaitGroup
		ps     passStats
		wall   time.Duration
		record = func(f func()) { mu.Lock(); f(); mu.Unlock() }
	)
	for c, ops := range clients {
		wg.Add(1)
		go func(c int, ops []op) {
			defer wg.Done()
			var busy time.Duration // this client's clock: timed ops only
			for i, o := range ops {
				switch o.kind {
				case opQuery:
					out := in.door.run(c, o)
					busy += out.latency
					var ck *checked
					if out.err == nil && o.check {
						d, err := digest(in.raw, out.final)
						if err != nil {
							out.err = fmt.Errorf("reading output of %s: %w", o.name, err)
						} else {
							ck = &checked{pass: p, client: c, index: i, name: o.name, digest: d}
						}
					}
					record(func() { ph.addQuery(&ps, o, out, ck) })
					if ph.layers != nil {
						ph.layers.addQuery(o, out)
					}
				case opAppend:
					t := time.Now()
					err := in.sp.appendInput(in.fs(), in.rc.seed, in.rc.quick)
					d := time.Since(t)
					busy += d
					record(func() {
						ps.AppendMs += ms(d)
						ph.counts.Appends++
						if err != nil {
							ph.errs = append(ph.errs, "append: "+err.Error())
						}
					})
					if ph.layers != nil {
						ph.layers.addOp("append", t, d)
					}
				case opSweep:
					t := time.Now()
					in.sys.Sweep()
					d := time.Since(t)
					busy += d
					record(func() {
						ps.SweepMs += ms(d)
						ph.counts.Sweeps++
					})
					if ph.layers != nil {
						ph.layers.addOp("sweep", t, d)
					}
				}
			}
			record(func() {
				if busy > wall {
					wall = busy
				}
			})
		}(c, ops)
	}
	wg.Wait()
	sort.Float64s(ps.lat)
	ps.WallS = wall.Seconds()
	ps.P50Ms = exp.Percentile(ps.lat, 50)
	ps.P95Ms = exp.Percentile(ps.lat, 95)
	if ps.WallS > 0 {
		ps.QPS = float64(ps.Queries) / ps.WallS
	}
	return ps
}

// addQuery folds one query's outcome into the pass and phase tallies.
func (ph *phase) addQuery(ps *passStats, o op, out outcome, ck *checked) {
	c := &ph.counts
	ps.Queries++
	c.Queries++
	c.Rejected += out.rejected
	if out.err != nil {
		c.Failed++
		ph.errs = append(ph.errs, o.name+": "+out.err.Error())
		return
	}
	l := ms(out.latency)
	ps.lat = append(ps.lat, l)
	ps.LatSumMs += l
	ph.lat = append(ph.lat, l)
	c.JobsRun += out.jobsRun
	c.JobsReused += out.jobsReused
	c.Rewrites += out.rewrites
	c.Stored += out.stored
	c.SimTimeNs += int64(out.simTime)
	if out.rewrites > 0 || out.jobsReused > 0 {
		c.Reusing++
	}
	if out.serverWall > 0 {
		ph.httpOverheadMs = append(ph.httpOverheadMs, ms(out.latency-out.serverWall))
	}
	if ck != nil {
		ph.checks = append(ph.checks, *ck)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle of vs (mean of the middle two when even);
// 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
