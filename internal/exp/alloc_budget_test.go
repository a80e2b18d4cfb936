//go:build !race

// The race detector's instrumentation allocates, and by amounts that
// vary from run to run, so allocation counts repeat only without it:
// this file is left out of -race builds.

package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"repro"
	"repro/internal/pigmix"
)

var allocBudgetPath = filepath.Join("..", "..", "testdata", "alloc_budget.json")

// allocBudget is testdata/alloc_budget.json: the objects and bytes each
// scenario allocated when it was recorded, and the Go release that
// recorded them (another release's runtime and compiler allocate
// differently).
type allocBudget struct {
	GoVersion string                `json:"go_version"`
	Scenarios map[string]allocCount `json:"scenarios"`
}

type allocCount struct {
	Objects uint64 `json:"objects"`
	Bytes   uint64 `json:"bytes"`
}

// The budget's tolerances: a scenario fails when it allocates more
// than the slack above its recorded objects or bytes, or more than the
// gain below its recorded objects, so a gain cannot stay behind as
// slack for a later change to spend.
const (
	allocObjectSlack = 0.01
	allocByteSlack   = 0.02
	allocObjectGain  = 0.02
)

// allocScenario mirrors one benchmark workload at TinyScale. setup
// opens a System and does what precedes the measured part; run is the
// measured part.
type allocScenario struct {
	name  string
	setup func() (sys *restore.System, run func() error, err error)
}

// serial fixes the System's worker count, so the scheduler starts the
// same goroutines on every machine.
func serial(opts restore.Options) restore.Config {
	cfg := restore.DefaultConfig()
	cfg.Options = opts
	cfg.WorkflowWorkers = 1
	return cfg
}

// runSuite runs every named PigMix query once.
func runSuite(sys *restore.System, names []string) error {
	for _, name := range names {
		if _, err := runQuery(sys, name); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// refreshAppends is how many days the append-refresh scenario appends,
// each refreshed by the requery that follows it.
const refreshAppends = 8

// coldBudgetBytes is small enough that one pass of the budget suite
// evicts at TinyScale.
const coldBudgetBytes = 64 << 10

var allocScenarios = []allocScenario{
	{"engine-scan", func() (*restore.System, func() error, error) {
		// Stock Pig: no reuse, temporaries deleted.
		sys, err := pigMixSystem(pigmix.TinyScale, serial(restore.Options{DeleteTemps: true}))
		return sys, func() error { return runSuite(sys, pigmix.CoreSuite) }, err
	}},
	{"cold-store", func() (*restore.System, func() error, error) {
		// Every plan new, sub-jobs stored under a byte budget.
		cfg := budgetConfig(coldBudgetBytes, restore.CostBenefitPolicy{})
		cfg.WorkflowWorkers = 1
		sys, err := pigMixSystem(pigmix.TinyScale, cfg)
		return sys, func() error {
			if _, err := budgetPass(sys); err != nil {
				return err
			}
			if sys.StorageStats().Evictions == 0 {
				return fmt.Errorf("nothing evicted under a %d-byte budget", coldBudgetBytes)
			}
			return nil
		}, err
	}},
	{"warm-zipf", func() (*restore.System, func() error, error) {
		// The suite's second pass, reusing what the first stored.
		sys, err := pigMixSystem(pigmix.TinyScale, serial(restore.Options{Reuse: true, Heuristic: restore.Aggressive}))
		if err == nil {
			err = runSuite(sys, pigmix.CoreSuite)
		}
		return sys, func() error { return runSuite(sys, pigmix.CoreSuite) }, err
	}},
	{"append-refresh", func() (*restore.System, func() error, error) {
		// Figure I's requery on a journaled repository, as the benchmark
		// runs it: append a day, refresh the stored N1, over enough days
		// that the journal and the input's inventory carry the cost.
		cfg := serial(restore.Options{Reuse: true, KeepWholeJobs: true, Heuristic: restore.Aggressive})
		cfg.Durability = restore.DurabilityConfig{Enabled: true}
		sys, fs, _, err := netTrafficSystem(2, cfg)
		if err == nil {
			_, err = runQuery(sys, "N1")
		}
		return sys, func() error {
			for range refreshAppends {
				if _, err := appendAndRequery(sys, fs); err != nil {
					return err
				}
			}
			if n := sys.DeltaStats().Refreshes; n != refreshAppends {
				return fmt.Errorf("%d refreshes, want %d", n, refreshAppends)
			}
			return nil
		}, err
	}},
}

// measureAllocs runs one scenario and returns what its measured part
// allocated. The collector is off while it runs, so the counts do not
// depend on when a collection would have started.
func measureAllocs(sc allocScenario) (allocCount, error) {
	sys, run, err := sc.setup()
	if sys != nil {
		defer sys.Close()
	}
	if err != nil {
		return allocCount{}, err
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = run()
	runtime.ReadMemStats(&after)
	return allocCount{Objects: after.Mallocs - before.Mallocs, Bytes: after.TotalAlloc - before.TotalAlloc}, err
}

// TestAllocationBudget holds four scenarios that mirror the benchmark's
// workloads to the objects and bytes they allocate on one core,
// recorded in testdata/alloc_budget.json: a scenario fails when it
// allocates more than 1 % more objects or 2 % more bytes, or more than
// 2 % fewer objects. On one core the counts repeat to a few objects in
// a hundred thousand, so the gate sees a change far smaller than
// wall-clock timing can. A change that lowers them commits the new
// budget (-update); one that raises them says why.
//
//	go test ./internal/exp -run TestAllocationBudget -update
func TestAllocationBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var want allocBudget
	if !*update {
		data, err := os.ReadFile(allocBudgetPath)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if want.GoVersion != runtime.Version() {
			t.Skipf("budget recorded with %s, running %s", want.GoVersion, runtime.Version())
		}
	}
	// One unmeasured System first, warm-zipf's: its suite, run cold and
	// then warm, fills every package-level cache, pool and lazily built
	// table the scenarios use, so the counts do not depend on which
	// tests ran before.
	for _, sc := range allocScenarios {
		if sc.name != "warm-zipf" {
			continue
		}
		if _, err := measureAllocs(sc); err != nil {
			t.Fatalf("%s (warm-up): %v", sc.name, err)
		}
	}
	got := allocBudget{GoVersion: runtime.Version(), Scenarios: map[string]allocCount{}}
	for _, sc := range allocScenarios {
		g, err := measureAllocs(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		got.Scenarios[sc.name] = g
		if *update {
			continue
		}
		w, ok := want.Scenarios[sc.name]
		if !ok {
			t.Errorf("%s: no budget recorded (run with -update)", sc.name)
			continue
		}
		t.Logf("%s: %d objects (budget %d), %d bytes (budget %d)", sc.name, g.Objects, w.Objects, g.Bytes, w.Bytes)
		if float64(g.Objects) > float64(w.Objects)*(1+allocObjectSlack) {
			t.Errorf("%s: %d objects allocated, budget %d (+%.1f %%)", sc.name, g.Objects, w.Objects, 100*(float64(g.Objects)/float64(w.Objects)-1))
		}
		if float64(g.Objects) < float64(w.Objects)*(1-allocObjectGain) {
			t.Errorf("%s: %d objects allocated, budget %d (%.1f %%): commit the gain with -update", sc.name, g.Objects, w.Objects, 100*(float64(g.Objects)/float64(w.Objects)-1))
		}
		if float64(g.Bytes) > float64(w.Bytes)*(1+allocByteSlack) {
			t.Errorf("%s: %d bytes allocated, budget %d (+%.1f %%)", sc.name, g.Bytes, w.Bytes, 100*(float64(g.Bytes)/float64(w.Bytes)-1))
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(allocBudgetPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
