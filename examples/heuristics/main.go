// Heuristics compares the paper's sub-job materialization policies
// (Section 4) on one query: the Conservative heuristic stores only
// size-reducing Project/Filter outputs, the Aggressive heuristic adds
// expensive Join/Group outputs, and No-Heuristic stores everything.
// The output shows the storage/overhead/speedup trade-off of Table 1
// and Figures 13–14 on a single workload.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/dfs"
	"repro/internal/pigmix"
)

func main() {
	q, err := pigmix.Get("L3")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("query L3 (join + group/aggregate, two MapReduce jobs)")
	fmt.Printf("%-14s %10s %10s %10s %12s %9s\n",
		"heuristic", "base", "generate", "reuse", "stored(GB)", "entries")

	for _, h := range []restore.Heuristic{restore.Conservative, restore.Aggressive, restore.NoHeuristic} {
		fs := dfs.New()
		if _, err := pigmix.Generate(fs, pigmix.Scale15GB, 5); err != nil {
			log.Fatal(err)
		}
		cfg := restore.DefaultConfig()
		cfg.SimScale, cfg.RecordScale = pigmix.SimScaleFor(fs, pigmix.Scale15GB), pigmix.RecordScaleFor(pigmix.Scale15GB)
		sys, err := restore.Recover(cfg, fs)
		if err != nil {
			log.Fatal(err)
		}
		ctx := context.Background()

		// Each phase picks its policy per query — the System's defaults
		// never change, so other clients would be unaffected.
		// Baseline (no ReStore).
		base, err := sys.ExecuteContext(ctx, q.Script)
		if err != nil {
			log.Fatal(err)
		}
		// Generating run: materialize sub-jobs per the heuristic.
		gen, err := sys.ExecuteContext(ctx, q.Script, restore.WithHeuristic(h))
		if err != nil {
			log.Fatal(err)
		}
		// Reuse run: rewrite against the warm repository.
		reuse, err := sys.ExecuteContext(ctx, q.Script, restore.WithOptions(restore.Options{Reuse: true}))
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%-14s %10v %10v %10v %12.2f %9d\n",
			h,
			base.SimTime.Round(time.Second),
			gen.SimTime.Round(time.Second),
			reuse.SimTime.Round(time.Second),
			float64(gen.ExtraStoredSimBytes)/(1<<30),
			sys.Repository().Len())
	}

	fmt.Println("\nreading the table: generate > base is the materialization overhead;")
	fmt.Println("reuse < base is the payoff once the repository is warm.")
}
