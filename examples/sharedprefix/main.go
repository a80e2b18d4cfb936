// Sharedprefix reproduces the paper's motivating example (Section 1/2):
// query Q1 joins page views with users; query Q2 performs the same join
// and then aggregates. With ReStore enabled, Q2's join job is answered
// entirely from Q1's stored output — the workflow shrinks from two
// MapReduce jobs to one.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/dfs"
	"repro/internal/pigmix"
)

const q1 = `
A = load 'pigmix/page_views' as (user, action, timespent, query_term, ip_addr, timestamp, estimated_revenue, page_info, page_links);
B = foreach A generate user, estimated_revenue;
alpha = load 'pigmix/users' as (name, phone, address, city);
beta = foreach alpha generate name;
C = join beta by name, B by user;
store C into 'L2_out';
`

const q2 = `
A = load 'pigmix/page_views' as (user, action, timespent, query_term, ip_addr, timestamp, estimated_revenue, page_info, page_links);
B = foreach A generate user, estimated_revenue;
alpha = load 'pigmix/users' as (name, phone, address, city);
beta = foreach alpha generate name;
C = join beta by name, B by user;
D = group C by $0;
E = foreach D generate group, SUM(C.estimated_revenue);
store E into 'L3_out';
`

func main() {
	// The System's default config leaves ReStore off; each query opts
	// into its own policy at submission time.
	fs := dfs.New()
	if _, err := pigmix.Generate(fs, pigmix.Scale15GB, 7); err != nil {
		log.Fatal(err)
	}
	cfg := restore.DefaultConfig()
	cfg.SimScale, cfg.RecordScale = pigmix.SimScaleFor(fs, pigmix.Scale15GB), pigmix.RecordScaleFor(pigmix.Scale15GB)
	sys, err := restore.Recover(cfg, fs)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	reuse := restore.WithOptions(restore.Options{Reuse: true, KeepWholeJobs: true})

	fmt.Println("running Q1 (join only)…")
	r1, err := sys.ExecuteContext(ctx, q1, reuse)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  Q1: %d job(s), %v simulated, stored %d repository entrie(s)\n",
		r1.JobsRun, r1.SimTime.Round(r1.SimTime/100+1), len(r1.Stored))

	fmt.Println("running Q2 (same join + aggregation)…")
	r2, err := sys.ExecuteContext(ctx, q2, reuse)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  Q2: %d job(s) run, %d reused whole, %v simulated\n",
		r2.JobsRun, r2.JobsReused, r2.SimTime.Round(r2.SimTime/100+1))
	for _, ev := range r2.Rewrites {
		fmt.Printf("  rewrite: job %s reused entry %s (output %s)\n", ev.JobID, ev.EntryID, ev.Path)
	}
	warmRows, _ := r2.Output("L3_out") // before the cold run replaces it

	// Verify against the same query with ReStore off (the System's
	// default): reuse is a per-query choice, so no second System.
	rc, err := sys.Execute(q2)
	if err != nil {
		log.Fatal(err)
	}

	coldRows, _ := rc.Output("L3_out")
	fmt.Printf("\nQ2 without ReStore: %v; with ReStore: %v (%.1fx)\n",
		rc.SimTime.Round(rc.SimTime/100+1), r2.SimTime.Round(r2.SimTime/100+1),
		float64(rc.SimTime)/float64(r2.SimTime))
	fmt.Printf("result sizes match: %v (%d rows)\n", len(warmRows) == len(coldRows), len(warmRows))
}
