package restore

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/logical"
	"repro/internal/mapreduce"
	"repro/internal/mrcompile"
	"repro/internal/physical"
	"repro/internal/piglatin"
	"repro/internal/tuple"
)

// System is a live instance: a DFS, a MapReduce engine, a repository of
// stored job outputs, and the ReStore driver. Its wiring and Config are
// fixed by New or Recover. Execute may be called concurrently from many
// goroutines; see the package comment for the concurrency model.
type System struct {
	fs     dfs.Backend
	eng    *mapreduce.Engine
	repo   *core.Repository
	store  *core.StorageManager
	leases *core.LeaseManager
	driver *core.Driver
	cfg    Config
	nquery atomic.Int64

	// durable is the durability subsystem's event log (nil when
	// Config.Durability is off); qidPrefix makes query IDs unique across
	// processes sharing one DFS ("w2q3" instead of "q3").
	durable   *core.DurableLog
	qidPrefix string

	// qmu guards the handles of the in-flight queries, which Queries
	// lists. The orphan sweep reads the storage manager's registry of
	// running queries instead.
	qmu     sync.Mutex
	queries map[string]*Query

	closed      atomic.Bool
	janitorStop chan struct{}
	janitorDone chan struct{}
}

// New creates a System over a fresh, empty DFS.
func New(cfg Config) *System {
	s, err := Recover(cfg, dfs.New())
	if err != nil {
		// A fresh DFS holds no manifest or log to mis-decode; reaching
		// here means the configuration itself is unusable.
		panic(fmt.Sprintf("restore: New: %v", err))
	}
	return s
}

// Recover opens a System over an existing DFS. With Config.Durability
// enabled it replays the durable repository — manifest plus event log —
// rebuilding the signature index from the persisted footprints (no
// stored plan is decoded) and resuming the simulated clock past every
// persisted event; on a DFS holding no log yet, it initializes one.
// Several Systems may be recovered over one DFS concurrently: they
// share the repository through the event log and serialize sub-job
// materialization through claim leases on the DFS, and each gets a
// process-unique writer identity (query IDs, entry IDs and the
// janitor's orphan sweep are all scoped by it).
//
// Without durability, Recover simply attaches a fresh in-memory
// repository to the given DFS: nothing of the repository outlives the
// System.
func Recover(cfg Config, fs dfs.Backend) (*System, error) {
	if cfg.DefaultReducers <= 0 {
		if cfg.Topology.Workers > 0 {
			cfg.DefaultReducers = cfg.Topology.ReduceSlots()
		} else {
			cfg.DefaultReducers = cluster.DefaultTopology().ReduceSlots()
		}
	}
	if cfg.Cost.DiskReadBW == 0 {
		cfg.Cost = cluster.DefaultCostModel()
	}
	eng := mapreduce.New(fs, mapreduce.Config{
		Topology:            cfg.Topology,
		Cost:                cfg.Cost,
		SimScale:            cfg.SimScale,
		RecordScale:         cfg.RecordScale,
		MaxCachedBatchBytes: cfg.MaxCachedBatchBytes,
	})

	var (
		repo    *core.Repository
		durable *core.DurableLog
		prefix  string // the writer ID; "" without durability
	)
	root := core.NamespacePath(cfg.NamespaceRoot, "repo")
	if cfg.Durability.Enabled {
		prefix = core.AllocWriter(fs, root)
	}
	// One lease manager per System: every materialization claim and
	// every pin is one of its records, renewed by its one heartbeat, and
	// a durable log compacts under one.
	leases := core.NewLeaseManager(fs, core.NamespacePath(cfg.NamespaceRoot, "locks"),
		prefix, cfg.Durability.LeaseTTL)
	if cfg.Durability.Enabled {
		var err error
		durable, repo, err = core.OpenDurableLog(fs, core.DurableConfig{
			Root:         root,
			Writer:       prefix,
			CompactEvery: cfg.Durability.CompactEvery,
			Leases:       leases,
		})
		if err != nil {
			return nil, err
		}
	} else {
		repo = core.NewRepository()
	}

	sc := core.StorageConfig{
		MaxBytes:      cfg.MaxRepositoryBytes,
		Policy:        cfg.Eviction,
		NamespaceRoot: cfg.NamespaceRoot,
		Leases:        leases,
	}
	if durable != nil {
		sc.Durable, sc.QueryPrefix = durable, prefix+"q"
	}
	store := core.NewStorageManager(repo, fs, sc)
	driver := core.NewDriver(eng, store)
	s := &System{
		fs:        fs,
		eng:       eng,
		repo:      repo,
		store:     store,
		leases:    leases,
		driver:    driver,
		cfg:       cfg,
		durable:   durable,
		qidPrefix: prefix,
		queries:   map[string]*Query{},
	}
	if cfg.JanitorInterval > 0 {
		s.janitorStop = make(chan struct{})
		s.janitorDone = make(chan struct{})
		go s.janitor(cfg.JanitorInterval)
	}
	return s, nil
}

// janitor is the background storage sweeper: every interval it reaps
// expired leases, runs the maintenance pass, reclaims dead queries'
// namespaces and enforces the byte budget, until Close.
func (s *System) janitor(every time.Duration) {
	defer close(s.janitorDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			s.Sweep()
		}
	}
}

// Sweep runs one storage-maintenance pass synchronously — exactly what
// the background janitor runs per tick: the reap of expired leases, the
// maintenance pass each query runs, and reclamation of per-query
// namespaces whose query is no longer in flight and whose data no
// repository entry references.
func (s *System) Sweep() SweepReport {
	res := s.store.Sweep(s.driver.Now(), s.cfg.Options.EvictionWindow)
	res.OrphanDatasets, res.OrphanBytes = s.store.VacuumOrphans()
	return res
}

// Close stops the background janitor and the lease heartbeat and marks
// the System closed: new submissions fail with ErrClosed, while queries
// already in flight run to completion (Wait on their handles to drain
// them; their claims and pins are no longer renewed, so one outliving
// Config.Durability.LeaseTTL may be taken over). Close is idempotent
// and safe to call concurrently.
func (s *System) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.janitorStop != nil {
		close(s.janitorStop)
		<-s.janitorDone
	}
	s.leases.Close()
	return nil
}

// StorageStats snapshots the storage manager: repository usage against
// the configured budget, claim-protocol traffic, evictions, and
// janitor activity.
func (s *System) StorageStats() StorageStats {
	return s.store.Stats()
}

// MatcherStats snapshots the plan-matcher subsystem: how many indexed
// candidate probes (and linear scans) the repository has served, the
// candidate and full-traversal counts behind them, and the signature
// index's current size.
func (s *System) MatcherStats() MatcherStats {
	return s.repo.MatcherStats()
}

// BatchCacheStats snapshots the engine's decoded-dataset cache — the
// in-memory fast path. The zero value is returned when the cache is
// disabled (Config.MaxCachedBatchBytes < 0).
func (s *System) BatchCacheStats() BatchCacheStats {
	return s.eng.CacheStats()
}

// DeltaStats snapshots the driver's incremental-maintenance counters:
// how many stored entries were delta-refreshed after their inputs grew
// by appended part files, the appended bytes those refreshes read, and
// the cold recompute bytes they avoided.
func (s *System) DeltaStats() DeltaStats {
	return s.driver.DeltaStats()
}

// LatencyStats snapshots the system's wall-latency histograms:
// submit→done per completed query, matcher probes, claim waits, and
// delta refreshes, each with interpolated p50/p95/p99 and cumulative
// buckets. Histograms record for every query, traced or not.
func (s *System) LatencyStats() LatencySnapshot {
	return s.driver.Metrics.Snapshot()
}

// FS exposes the distributed file system.
func (s *System) FS() dfs.Backend { return s.fs }

// Repository exposes the ReStore repository.
func (s *System) Repository() *core.Repository { return s.repo }

// WriteDataset stores rows as a single-part dataset at path. Like any
// DFS write it reaches the change feed: the next query's maintenance
// removes the entries that stored or read the old contents.
func (s *System) WriteDataset(path string, rows []Tuple) error {
	w := s.fs.Create(strings.TrimSuffix(path, "/") + "/part-00000")
	tw := tuple.NewWriter(w)
	for _, r := range rows {
		if err := tw.Write(r); err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return w.Close()
}

// ReadDataset returns every tuple stored under path.
func (s *System) ReadDataset(path string) ([]Tuple, error) {
	files := s.fs.List(path)
	if len(files) == 0 {
		return nil, fmt.Errorf("restore: dataset %q does not exist", path)
	}
	var out []Tuple
	for _, f := range files {
		data, _, err := dfs.ReadString(s.fs, f)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(data, "\n") {
			if line == "" {
				continue
			}
			out = append(out, tuple.DecodeText(line))
		}
	}
	return out, nil
}

// DurabilityStats snapshots the durable repository subsystem: recovery
// size and log append/replay/compaction traffic. The zero value is
// returned when durability is off.
func (s *System) DurabilityStats() DurabilityStats {
	if s.durable == nil {
		return DurabilityStats{}
	}
	return s.durable.Stats()
}

func (s *System) compile(script, tempPrefix string) (*physical.Workflow, error) {
	parsed, err := piglatin.Parse(script)
	if err != nil {
		return nil, err
	}
	lp, err := logical.Build(parsed)
	if err != nil {
		return nil, err
	}
	lp = logical.Optimize(lp)
	return mrcompile.Compile(lp, mrcompile.Options{
		TempPrefix:      tempPrefix,
		DefaultReducers: s.cfg.DefaultReducers,
	})
}
