//go:build !race

// The race detector's instrumentation allocates, so allocation counts
// repeat only without it: this file is left out of -race builds.

package mapreduce

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/physical"
)

// TestScratchSurvivesCollection runs every scratchScripts job that
// shuffles three times on one engine with one task slot: twice to warm
// the slot's scratch and the batch cache, then, after two collections,
// once more. The slot owns its scratch for the engine's lifetime, so no
// collection drops it and the third run allocates what the second did:
// it may not allocate 1 % more bytes. A scratch the collector could
// drop would be rebuilt and regrown by the third run, tens of percent
// more bytes. What remains between the runs is a few objects of fmt's
// own sync.Pool, which the collections empty and the part-file names
// (fmt.Sprintf) refill.
func TestScratchSurvivesCollection(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i, src := range scratchScripts {
		fs := dfs.New()
		seedScratchInputs(t, fs)
		eng := New(fs, Config{Cost: cluster.DefaultCostModel(), SplitSize: 4 << 10, Parallelism: 1})
		var runs [3][]*physical.Job
		for r := range runs {
			prefix := fmt.Sprintf("out/run%d", r)
			runs[r] = compileUnder(t, fmt.Sprintf(src, prefix), prefix)
		}
		if !slices.ContainsFunc(runs[0], func(j *physical.Job) bool { return j.NumReducers > 0 }) {
			continue // map-only: no grouping tables to regrow
		}
		bytes := func(jobs []*physical.Job) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, job := range jobs {
				if _, err := eng.Run(context.Background(), job, nil); err != nil {
					t.Fatalf("script %d: %v", i, err)
				}
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		bytes(runs[0])
		warm := bytes(runs[1])
		runtime.GC()
		runtime.GC()
		collected := bytes(runs[2])
		t.Logf("script %d: %d bytes warm, %d after two collections", i, warm, collected)
		if float64(collected) >= float64(warm)*1.01 {
			t.Errorf("script %d: %d bytes after two collections, %d warm (+%.1f %%)", i, collected, warm, 100*(float64(collected)/float64(warm)-1))
		}
	}
}
