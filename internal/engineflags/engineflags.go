// Package engineflags declares the engine flags restore-cli and
// restore-server share and resolves them into what both commands run:
// a restore.Config, the per-query default Options, the PigMix scale,
// the DFS backend, and the System built over it.
package engineflags

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/pigmix"
)

// Flags holds the parsed values of the shared engine flags.
type Flags struct {
	Scale, Heuristic, Evict, NSRoot, Backend, DataDir string
	Reuse, WholeJobs, Durable                         bool
	Workers, CompactEvery                             int
	MaxRepoMB, BatchCacheMB                           int64
	EvictWindow, Janitor, LeaseTTL                    time.Duration
}

// Register declares the shared flags on fs. The two commands differ
// only in three defaults — the CLI runs one 15GB query with ReStore
// off, the server serves a tiny instance with reuse on — so those are
// parameters.
func Register(fs *flag.FlagSet, scale string, reuse bool, heuristic string) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Scale, "scale", scale, "PigMix instance: tiny, 15GB or 150GB")
	fs.BoolVar(&f.Reuse, "reuse", reuse, "enable plan matching and rewriting")
	fs.StringVar(&f.Heuristic, "heuristic", heuristic, "sub-job heuristic: off, conservative, aggressive, no-heuristic")
	fs.BoolVar(&f.WholeJobs, "whole-jobs", true, "store whole job outputs in the repository")
	fs.IntVar(&f.Workers, "workers", 0, "concurrent jobs per workflow DAG (0 = GOMAXPROCS, 1 = serial)")
	fs.Int64Var(&f.MaxRepoMB, "max-repo-mb", 0, "repository storage budget in MB (0 = unbounded)")
	fs.Int64Var(&f.BatchCacheMB, "batch-cache-mb", 0, "decoded-dataset batch cache budget in MB (0 = default 256, negative = off)")
	fs.StringVar(&f.Evict, "evict", "cost-benefit", "eviction policy under the budget: reuse-window (idle beyond -evict-window first, then LRU), lru (reuse-window with no window), cost-benefit")
	fs.DurationVar(&f.EvictWindow, "evict-window", time.Hour, "idle window of the reuse-window policy (simulated time)")
	fs.DurationVar(&f.Janitor, "janitor", 0, "background storage-janitor sweep interval (0 = off)")
	fs.StringVar(&f.NSRoot, "ns-root", "", "root of ReStore's managed namespaces (empty = "+core.DefaultNamespaceRoot+")")
	fs.BoolVar(&f.Durable, "durable", false, "journal the repository to a manifest + event log on the DFS (crash-safe, multi-process)")
	fs.IntVar(&f.CompactEvery, "compact-every", 0, "records between automatic log compactions (0 = default 64, negative = never)")
	fs.DurationVar(&f.LeaseTTL, "lease-ttl", 0, "cross-process claim lease TTL (0 = default 1m)")
	fs.StringVar(&f.Backend, "backend", "memory", "DFS backend: memory (volatile) or disk (persistent, needs -data-dir)")
	fs.StringVar(&f.DataDir, "data-dir", "", "directory of the disk backend's datasets and record log")
	return f
}

// Resolved is what the flags resolve to.
type Resolved struct {
	Config restore.Config
	// Options are the per-query defaults the reuse flags select; both
	// commands pass them per submission rather than through Config.
	Options restore.Options
	Scale   pigmix.Scale
}

// Resolve validates the flag values and builds the configuration. It
// touches no storage; OpenBackend does.
func (f *Flags) Resolve() (Resolved, error) {
	var e Resolved
	heur, err := core.ParseHeuristic(f.Heuristic)
	if err != nil {
		return e, err
	}
	e.Options = restore.Options{Reuse: f.Reuse, Heuristic: heur, KeepWholeJobs: f.WholeJobs}
	switch strings.ToLower(f.Scale) {
	case "tiny":
		e.Scale = pigmix.TinyScale
	case "15gb":
		e.Scale = pigmix.Scale15GB
	case "150gb":
		e.Scale = pigmix.Scale150GB
	default:
		return e, fmt.Errorf("unknown scale %q (want tiny, 15GB or 150GB)", f.Scale)
	}
	policy, ok := core.ParseEvictionPolicy(f.Evict, f.EvictWindow)
	if !ok {
		return e, fmt.Errorf("unknown eviction policy %q (want reuse-window, lru or cost-benefit)", f.Evict)
	}
	cfg := restore.DefaultConfig()
	cfg.MaxRepositoryBytes = f.MaxRepoMB << 20
	cfg.MaxCachedBatchBytes = f.BatchCacheMB << 20
	if f.BatchCacheMB < 0 {
		cfg.MaxCachedBatchBytes = -1
	}
	cfg.Eviction = policy
	cfg.JanitorInterval = f.Janitor
	cfg.NamespaceRoot = f.NSRoot
	cfg.Durability = restore.DurabilityConfig{
		Enabled:      f.Durable,
		CompactEvery: f.CompactEvery,
		LeaseTTL:     f.LeaseTTL,
	}
	e.Config = cfg
	return e, nil
}

// OpenBackend opens the DFS backend -backend selects. The returned
// close function releases the disk backend's directory lock (a no-op
// for memory) and must be called before the process exits.
func (f *Flags) OpenBackend() (dfs.Backend, func(), error) {
	switch f.Backend {
	case "memory":
		return dfs.New(), func() {}, nil
	case "disk":
		if f.DataDir == "" {
			return nil, nil, fmt.Errorf("-backend=disk needs -data-dir")
		}
		disk, err := dfs.OpenDisk(f.DataDir)
		if err != nil {
			return nil, nil, err
		}
		return disk, func() { disk.Close() }, nil
	}
	return nil, nil, fmt.Errorf("unknown backend %q (want memory or disk)", f.Backend)
}

// OpenSystem builds the System both commands run over an opened
// backend: it finds the PigMix instance on fs — generating one only
// when the backend holds none, since regenerating would bump the input
// datasets' versions and invalidate every repository entry derived
// from them — sizes r.Config's simulated clock to that data, and
// recovers a System with it. Progress lines go to stdout behind
// prefix.
func (f *Flags) OpenSystem(r *Resolved, fs dfs.Backend, prefix string) (*restore.System, error) {
	if fs.Size(pigmix.PathPageViews) > 0 {
		fmt.Printf("%sreusing PigMix instance found on the %s backend\n", prefix, f.Backend)
	} else {
		fmt.Printf("%sgenerating PigMix %s instance…\n", prefix, r.Scale.Name)
		if _, err := pigmix.Generate(fs, r.Scale, 1); err != nil {
			return nil, err
		}
	}
	r.Config.SimScale = pigmix.SimScaleFor(fs, r.Scale)
	r.Config.RecordScale = pigmix.RecordScaleFor(r.Scale)
	return restore.Recover(r.Config, fs)
}
