// Command restore-load drives a running restore-server with thousands
// of concurrent sessions issuing a Zipf-distributed PigMix query mix,
// and emits a machine-readable BENCH_<sha>.json artifact: latency
// percentiles, throughput, reuse-hit ratio and admission rejections,
// in total and per tenant.
//
// Usage:
//
//	restore-load -addr http://localhost:8080 -sessions 1000 -queries 3
//	restore-load -tenants heavy:3,light:1 -skew 1.2 -out BENCH_abc.json
//
// -tenants shares the sessions among named tenants by weight (heavy:3
// light:1 → 3/4 of sessions are heavy). Each session submits -queries
// queries back-to-back, drawing names from the Zipfian mix (-mix,
// -skew, -seed); a 429 response is counted as a rejection and retried
// after its Retry-After hint, up to -retry429 times. "-mix net"
// selects the append-heavy net-traffic log-analytics suite (N1..N4);
// the artifact then carries the server's delta-refresh counters.
//
// The assertion flags (-min-completed, -min-reuse-queries,
// -min-rejected, -require-tenant-reuse) turn the harness into a CI
// gate: the run exits non-zero when the service level they describe
// was not met.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/pigmix"
)

// queryOutcome is one query's client-side measurement.
type queryOutcome struct {
	tenant    string
	state     string
	latencyMs float64
	rejected  int64 // 429s seen on the way in
	jobsRun   int64
	reused    int64
	rewrites  int64
}

// resultBody is the slice of the server's QueryInfo the harness reads.
type resultBody struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		JobsRun    int64 `json:"jobsRun"`
		JobsReused int64 `json:"jobsReused"`
		Rewrites   []struct {
			WholeJob bool `json:"wholeJob"`
		} `json:"rewrites"`
	} `json:"result"`
}

func main() {
	var (
		addrFlag     = flag.String("addr", "http://localhost:8080", "restore-server base URL")
		sessionsFlag = flag.Int("sessions", 1000, "concurrent sessions to run")
		queriesFlag  = flag.Int("queries", 2, "queries per session")
		tenantsFlag  = flag.String("tenants", "heavy:3,light:1", "tenant shares name:weight[,name:weight...]")
		mixFlag      = flag.String("mix", "", "comma-separated PigMix query names, most popular first (default: all)")
		skewFlag     = flag.Float64("skew", 1.0, "Zipf skew of the query mix (0 = uniform)")
		seedFlag     = flag.Int64("seed", 1, "query-mix RNG seed")
		timeoutFlag  = flag.Duration("timeout", 10*time.Minute, "whole-run deadline")
		retryFlag    = flag.Int("retry429", 50, "retries after a 429 before giving the query up")
		outFlag      = flag.String("out", "", "artifact path (default BENCH_<sha>.json)")
		shaFlag      = flag.String("sha", "", "commit SHA stamped into the artifact (default $GITHUB_SHA or dev)")
		minDoneFlag  = flag.Int64("min-completed", 0, "assert at least this many queries completed")
		minReuseFlag = flag.Int64("min-reuse-queries", 0, "assert at least this many completed queries reused the repository")
		minRejFlag   = flag.Int64("min-rejected", 0, "assert at least this many 429 rejections were observed")
		reqReuseFlag = flag.String("require-tenant-reuse", "", "comma-separated tenants that must each show reuse")
		minDeltaFlag = flag.Int64("min-delta-refreshes", 0, "assert at least this many delta refreshes on the server's /metrics")
	)
	flag.Parse()

	sha := *shaFlag
	if sha == "" {
		sha = os.Getenv("GITHUB_SHA")
	}
	if sha == "" {
		sha = "dev"
	}
	if len(sha) > 12 {
		sha = sha[:12]
	}
	outPath := *outFlag
	if outPath == "" {
		outPath = fmt.Sprintf("BENCH_%s.json", sha)
	}

	names := pigmix.Names()
	if *mixFlag != "" {
		if *mixFlag == "net" {
			// The append-heavy log-analytics suite: N1..N4 over the
			// net-traffic flow log, the workload the server's
			// incremental-maintenance path refreshes under appends.
			names = append([]string(nil), pigmix.NetTrafficSuite...)
		} else {
			names = strings.Split(*mixFlag, ",")
		}
		for _, n := range names {
			if _, err := pigmix.Get(n); err != nil {
				fail(err)
			}
		}
	}
	mix, err := exp.NewZipfMix(names, *skewFlag, *seedFlag)
	if err != nil {
		fail(err)
	}

	shares, err := parseTenants(*tenantsFlag)
	if err != nil {
		fail(err)
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2048,
		MaxIdleConnsPerHost: 2048,
	}}
	ctx, cancel := context.WithTimeout(context.Background(), *timeoutFlag)
	defer cancel()

	// Open the sessions first — the server's /metrics will show every
	// tenant — then run them all concurrently.
	type boundSession struct{ id, tenant string }
	sessions := make([]boundSession, 0, *sessionsFlag)
	sessionCount := map[string]int{}
	for i := 0; i < *sessionsFlag; i++ {
		tenant := shares[i%len(shares)]
		id, err := openSession(ctx, client, *addrFlag, tenant)
		if err != nil {
			fail(fmt.Errorf("opening session %d: %w", i, err))
		}
		sessions = append(sessions, boundSession{id, tenant})
		sessionCount[tenant]++
	}
	fmt.Printf("restore-load: %d sessions open across %d tenants, %d queries each\n",
		len(sessions), len(sessionCount), *queriesFlag)

	outcomes := make([]queryOutcome, 0, len(sessions)**queriesFlag)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for _, bs := range sessions {
		wg.Add(1)
		go func(bs boundSession) {
			defer wg.Done()
			for i := 0; i < *queriesFlag; i++ {
				oc := runQuery(ctx, client, *addrFlag, bs.id, bs.tenant, mix.Pick(), *retryFlag)
				mu.Lock()
				outcomes = append(outcomes, oc)
				mu.Unlock()
			}
		}(bs)
	}
	wg.Wait()
	wall := time.Since(start)

	report := buildReport(*addrFlag, *sessionsFlag, *queriesFlag, *skewFlag,
		names, sessionCount, outcomes, wall)
	scrapeBatchCache(ctx, client, *addrFlag, report)
	art := &exp.BenchArtifact{SHA: sha, GeneratedAt: time.Now().UTC(), Load: report}
	out, err := os.Create(outPath)
	if err != nil {
		fail(err)
	}
	if err := art.WriteJSON(out); err != nil {
		fail(err)
	}
	out.Close()

	fmt.Printf("restore-load: %d completed, %d failed, %d canceled, %d rejected in %.1fs (%.1f q/s)\n",
		report.Completed, report.Failed, report.Canceled, report.Rejected,
		report.WallSeconds, report.Throughput)
	fmt.Printf("restore-load: latency p50 %.1fms p95 %.1fms p99 %.1fms; reuse-hit %.2f (%d/%d queries)\n",
		report.LatencyP50Ms, report.LatencyP95Ms, report.LatencyP99Ms,
		report.ReuseHitRatio, report.QueriesWithReuse, report.Completed)
	if report.BatchCacheHits+report.BatchCacheMisses > 0 {
		fmt.Printf("restore-load: batch cache %d hits / %d misses (%.2f hit ratio)\n",
			report.BatchCacheHits, report.BatchCacheMisses, report.BatchCacheHitRatio)
	}
	if report.DeltaRefreshes+report.DeltaRefreshFailed > 0 {
		fmt.Printf("restore-load: delta refresh %d entries (%d failed), %.1f MB appended read, %.1f MB cold avoided\n",
			report.DeltaRefreshes, report.DeltaRefreshFailed,
			float64(report.DeltaBytesRead)/(1<<20), float64(report.DeltaColdBytesAvoided)/(1<<20))
	}
	if report.ProbeLatency.Count > 0 {
		fmt.Printf("restore-load: server stages — probe p50 %.2fms p95 %.2fms p99 %.2fms (%d); claim-wait p99 %.2fms (%d); refresh p99 %.2fms (%d)\n",
			report.ProbeLatency.P50Ms, report.ProbeLatency.P95Ms, report.ProbeLatency.P99Ms, report.ProbeLatency.Count,
			report.ClaimWaitLatency.P99Ms, report.ClaimWaitLatency.Count,
			report.RefreshLatency.P99Ms, report.RefreshLatency.Count)
	}
	for name, tl := range report.PerTenant {
		fmt.Printf("restore-load:   %s: %d completed, %d rejected, p50 %.1fms, %d queries with reuse\n",
			name, tl.Completed, tl.Rejected, tl.LatencyP50Ms, tl.QueriesWithReuse)
	}
	fmt.Printf("restore-load: artifact written to %s\n", outPath)

	if report.Completed < *minDoneFlag {
		fail(fmt.Errorf("assertion: completed %d < %d", report.Completed, *minDoneFlag))
	}
	if report.QueriesWithReuse < *minReuseFlag {
		fail(fmt.Errorf("assertion: queries with reuse %d < %d", report.QueriesWithReuse, *minReuseFlag))
	}
	if report.Rejected < *minRejFlag {
		fail(fmt.Errorf("assertion: rejected %d < %d", report.Rejected, *minRejFlag))
	}
	if *reqReuseFlag != "" {
		for _, tenant := range strings.Split(*reqReuseFlag, ",") {
			tl := report.PerTenant[tenant]
			if tl == nil || tl.QueriesWithReuse == 0 {
				fail(fmt.Errorf("assertion: tenant %q shows no reuse", tenant))
			}
		}
	}
	if report.DeltaRefreshes < *minDeltaFlag {
		fail(fmt.Errorf("assertion: delta refreshes %d < %d", report.DeltaRefreshes, *minDeltaFlag))
	}
}

// parseTenants expands "heavy:3,light:1" into a round-robin schedule
// of tenant names proportional to the weights.
func parseTenants(spec string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(spec, ",") {
		name, w, ok := strings.Cut(strings.TrimSpace(part), ":")
		share := 1
		if ok {
			n, err := strconv.Atoi(w)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("bad tenant share %q", part)
			}
			share = n
		}
		if name == "" {
			return nil, fmt.Errorf("bad tenant spec %q", part)
		}
		for i := 0; i < share; i++ {
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -tenants")
	}
	return out, nil
}

// scrapeBatchCache folds the server's decoded-dataset cache and
// incremental-maintenance counters from /metrics into the report; a
// scrape failure leaves them zero (the report stays usable without the
// warm-path columns).
func scrapeBatchCache(ctx context.Context, c *http.Client, addr string, rep *exp.LoadReport) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/metrics", nil)
	if err != nil {
		return
	}
	resp, err := c.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var doc struct {
		BatchCache struct {
			Hits   int64
			Misses int64
		} `json:"batchCache"`
		Delta struct {
			Refreshes        int64 `json:"refreshes"`
			Failed           int64 `json:"failed"`
			DeltaBytesRead   int64 `json:"deltaBytesRead"`
			ColdBytesAvoided int64 `json:"coldBytesAvoided"`
		} `json:"delta"`
		Latency struct {
			Probe     histDoc `json:"probe"`
			ClaimWait histDoc `json:"claimWait"`
			Refresh   histDoc `json:"refresh"`
		} `json:"latency"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return
	}
	rep.BatchCacheHits = doc.BatchCache.Hits
	rep.BatchCacheMisses = doc.BatchCache.Misses
	if total := doc.BatchCache.Hits + doc.BatchCache.Misses; total > 0 {
		rep.BatchCacheHitRatio = float64(doc.BatchCache.Hits) / float64(total)
	}
	rep.DeltaRefreshes = doc.Delta.Refreshes
	rep.DeltaRefreshFailed = doc.Delta.Failed
	rep.DeltaBytesRead = doc.Delta.DeltaBytesRead
	rep.DeltaColdBytesAvoided = doc.Delta.ColdBytesAvoided
	rep.ProbeLatency = doc.Latency.Probe.stage()
	rep.ClaimWaitLatency = doc.Latency.ClaimWait.stage()
	rep.RefreshLatency = doc.Latency.Refresh.stage()
}

// histDoc is the slice of a /metrics histogram snapshot the harness
// keeps: the precomputed percentiles, interpolated server-side from the
// cumulative buckets.
type histDoc struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50Ms"`
	P95Ms float64 `json:"p95Ms"`
	P99Ms float64 `json:"p99Ms"`
}

func (h histDoc) stage() exp.StageLatency {
	return exp.StageLatency{Count: h.Count, P50Ms: h.P50Ms, P95Ms: h.P95Ms, P99Ms: h.P99Ms}
}

func openSession(ctx context.Context, c *http.Client, addr, tenant string) (string, error) {
	body, _ := json.Marshal(map[string]string{"tenant": tenant})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/sessions", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	resp, err := c.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("POST /sessions: %s: %s", resp.Status, b)
	}
	var sess struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		return "", err
	}
	return sess.ID, nil
}

// runQuery submits one query (retrying through 429 backpressure) and
// blocks on its result, measuring submit-to-result latency.
func runQuery(ctx context.Context, c *http.Client, addr, session, tenant, query string, retries int) queryOutcome {
	oc := queryOutcome{tenant: tenant, state: "failed"}
	start := time.Now()
	var id string
	for attempt := 0; ; attempt++ {
		body, _ := json.Marshal(map[string]any{"session": session, "query": query})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/queries", bytes.NewReader(body))
		if err != nil {
			return oc
		}
		resp, err := c.Do(req)
		if err != nil {
			return oc
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			oc.rejected++
			delay := time.Second
			if v := resp.Header.Get("Retry-After"); v != "" {
				if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
					delay = time.Duration(secs) * time.Second
				}
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if attempt >= retries {
				oc.state = "rejected"
				return oc
			}
			select {
			case <-time.After(delay):
				continue
			case <-ctx.Done():
				return oc
			}
		}
		if resp.StatusCode != http.StatusAccepted {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return oc
		}
		var acc struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&acc)
		resp.Body.Close()
		if err != nil {
			return oc
		}
		id = acc.ID
		break
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/queries/"+id+"/result", nil)
	if err != nil {
		return oc
	}
	resp, err := c.Do(req)
	if err != nil {
		return oc
	}
	defer resp.Body.Close()
	var res resultBody
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return oc
	}
	oc.state = res.State
	oc.latencyMs = float64(time.Since(start)) / float64(time.Millisecond)
	if res.Result != nil {
		oc.jobsRun = res.Result.JobsRun
		oc.reused = res.Result.JobsReused
		oc.rewrites = int64(len(res.Result.Rewrites))
	}
	return oc
}

func buildReport(addr string, sessions, queries int, skew float64, mix []string,
	sessionCount map[string]int, outcomes []queryOutcome, wall time.Duration) *exp.LoadReport {
	rep := &exp.LoadReport{
		Addr:              addr,
		Sessions:          sessions,
		QueriesPerSession: queries,
		Skew:              skew,
		Mix:               mix,
		WallSeconds:       wall.Seconds(),
		PerTenant:         map[string]*exp.TenantLoad{},
	}
	latAll := []float64{}
	latTenant := map[string][]float64{}
	for name, n := range sessionCount {
		rep.PerTenant[name] = &exp.TenantLoad{Sessions: n}
	}
	for _, oc := range outcomes {
		tl := rep.PerTenant[oc.tenant]
		if tl == nil {
			tl = &exp.TenantLoad{}
			rep.PerTenant[oc.tenant] = tl
		}
		rep.Rejected += oc.rejected
		tl.Rejected += oc.rejected
		switch oc.state {
		case "done":
			rep.Completed++
			tl.Completed++
			rep.JobsRun += oc.jobsRun
			rep.JobsReused += oc.reused
			rep.Rewrites += oc.rewrites
			tl.JobsRun += oc.jobsRun
			tl.JobsReused += oc.reused
			tl.Rewrites += oc.rewrites
			if oc.reused > 0 || oc.rewrites > 0 {
				rep.QueriesWithReuse++
				tl.QueriesWithReuse++
			}
			latAll = append(latAll, oc.latencyMs)
			latTenant[oc.tenant] = append(latTenant[oc.tenant], oc.latencyMs)
		case "canceled":
			rep.Canceled++
			tl.Canceled++
		default:
			rep.Failed++
			tl.Failed++
		}
	}
	sort.Float64s(latAll)
	rep.LatencyP50Ms = exp.Percentile(latAll, 50)
	rep.LatencyP95Ms = exp.Percentile(latAll, 95)
	rep.LatencyP99Ms = exp.Percentile(latAll, 99)
	if len(latAll) > 0 {
		rep.LatencyMaxMs = latAll[len(latAll)-1]
	}
	if rep.WallSeconds > 0 {
		rep.Throughput = float64(rep.Completed) / rep.WallSeconds
	}
	if rep.Completed > 0 {
		rep.ReuseHitRatio = float64(rep.QueriesWithReuse) / float64(rep.Completed)
	}
	for name, lats := range latTenant {
		sort.Float64s(lats)
		rep.PerTenant[name].LatencyP50Ms = exp.Percentile(lats, 50)
		rep.PerTenant[name].LatencyP99Ms = exp.Percentile(lats, 99)
	}
	return rep
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "restore-load:", err)
	os.Exit(1)
}
