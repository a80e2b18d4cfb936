// Dashboard simulates the workload the paper's introduction motivates:
// an analytics team runs a battery of ad-hoc queries over the same log
// data. Every query starts by loading and projecting the same
// page_views table; ReStore's Conservative heuristic materializes those
// projections once and every later query starts from them. The example
// also exercises repository eviction: when the logs are refreshed, all
// stale entries are invalidated automatically (Rule 4).
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

var dashboards = map[string]string{
	"revenue by user": `
A = load 'pigmix/page_views' as (user, action, timespent, query_term, ip_addr, timestamp, estimated_revenue, page_info, page_links);
B = foreach A generate user, estimated_revenue;
G = group B by user;
S = foreach G generate group, SUM(B.estimated_revenue);
store S into 'dash/revenue';
`,
	"time spent by user": `
A = load 'pigmix/page_views' as (user, action, timespent, query_term, ip_addr, timestamp, estimated_revenue, page_info, page_links);
B = foreach A generate user, timespent;
G = group B by user;
S = foreach G generate group, SUM(B.timespent);
store S into 'dash/timespent';
`,
	"high-value views": `
A = load 'pigmix/page_views' as (user, action, timespent, query_term, ip_addr, timestamp, estimated_revenue, page_info, page_links);
B = foreach A generate user, estimated_revenue;
F = filter B by estimated_revenue > 90;
store F into 'dash/highvalue';
`,
}

func main() {
	cfg := restore.DefaultConfig()
	cfg.Options = restore.Options{
		Reuse:          true,
		Heuristic:      restore.Conservative,
		KeepWholeJobs:  true,
		EvictionWindow: 24 * time.Hour, // drop entries unused for a simulated day
	}
	fs := dfs.New()
	if _, err := pigmix.Generate(fs, pigmix.Scale15GB, 3); err != nil {
		log.Fatal(err)
	}
	cfg.SimScale, cfg.RecordScale = pigmix.SimScaleFor(fs, pigmix.Scale15GB), pigmix.RecordScaleFor(pigmix.Scale15GB)
	sys, err := restore.Recover(cfg, fs)
	if err != nil {
		log.Fatal(err)
	}

	order := []string{"revenue by user", "time spent by user", "high-value views"}

	fmt.Println("== morning: first refresh of each dashboard ==")
	runAll(sys, order)

	fmt.Println("\n== afternoon: dashboards refresh again (repository warm) ==")
	runAll(sys, order)

	fmt.Println("\n== next day: the logs were re-ingested ==")
	if _, err := pigmix.Generate(fs, pigmix.Scale15GB, 4); err != nil { // new seed = new data
		log.Fatal(err)
	}
	fmt.Printf("repository before refresh: %d entries\n", sys.Repository().Len())
	runAll(sys, order[:1])
	fmt.Println("stale entries were not reused (inputs changed), fresh ones stored")
}

// runAll submits every dashboard at once — one tagged query each — then
// awaits them, reporting per-job lifecycle states from the handles. A
// refresh taking longer than a minute is cancelled by the context.
func runAll(sys *restore.System, names []string) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	queries := make([]*restore.Query, len(names))
	for i, name := range names {
		q, err := sys.Submit(ctx, dashboards[name], restore.WithTag(name))
		if err != nil {
			log.Fatal(err)
		}
		queries[i] = q
	}
	for i, q := range queries {
		res, err := q.Wait()
		if err != nil {
			log.Fatal(err)
		}
		st := q.Status()
		states := map[restore.JobState]int{}
		for _, s := range st.Jobs {
			states[s]++
		}
		fmt.Printf("%-22s %8v simulated  (jobs done %d, reused %d; rewrites %d, stored %d, repo %d entries)\n",
			names[i], res.SimTime.Round(time.Second), states[restore.JobDone], states[restore.JobReused],
			len(res.Rewrites), len(res.Stored), sys.Repository().Len())
	}
}
