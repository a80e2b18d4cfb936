// Command restore-load drives a running restore-server with thousands
// of concurrent sessions issuing a Zipf-distributed PigMix query mix,
// and prints what it saw: completions, latency percentiles, throughput,
// reuse and admission rejections, in total and per tenant.
//
// Usage:
//
//	restore-load -addr http://localhost:8080 -sessions 1000 -queries 3
//	restore-load -tenants heavy:3,light:1 -skew 1.2
//
// -tenants shares the sessions among named tenants by weight (heavy:3
// light:1 → 3/4 of sessions are heavy). Each session submits -queries
// queries back-to-back, drawing names from the Zipfian mix (-mix,
// -skew, -seed); a 429 response is counted as a rejection and retried
// after its Retry-After hint, up to -retry429 times. "-mix net"
// selects the append-heavy net-traffic log-analytics suite (N1..N4).
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

// report is the harness's service-level summary of one run, in total
// and per tenant.
type report struct {
	completed, failed, canceled, rejected int64
	wallSeconds, throughput               float64
	p50Ms, p95Ms, p99Ms                   float64
	queriesWithReuse                      int64
	reuseHitRatio                         float64
	perTenant                             map[string]*tenantReport
}

// tenantReport is one tenant's slice of a run.
type tenantReport struct {
	completed, rejected, queriesWithReuse int64
	p50Ms                                 float64
}

// queryOutcome is one query's client-side measurement.
type queryOutcome struct {
	tenant    string
	state     string
	latencyMs float64
	rejected  int64 // 429s seen on the way in
	reused    int64
	rewrites  int64
}

// resultBody is the slice of the server's QueryInfo the harness reads.
type resultBody struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
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
		minDoneFlag  = flag.Int64("min-completed", 0, "assert at least this many queries completed")
		minReuseFlag = flag.Int64("min-reuse-queries", 0, "assert at least this many completed queries reused the repository")
		minRejFlag   = flag.Int64("min-rejected", 0, "assert at least this many 429 rejections were observed")
		reqReuseFlag = flag.String("require-tenant-reuse", "", "comma-separated tenants that must each show reuse")
	)
	flag.Parse()

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

	rep := buildReport(sessionCount, outcomes, wall)
	fmt.Printf("restore-load: %d completed, %d failed, %d canceled, %d rejected in %.1fs (%.1f q/s)\n",
		rep.completed, rep.failed, rep.canceled, rep.rejected, rep.wallSeconds, rep.throughput)
	fmt.Printf("restore-load: latency p50 %.1fms p95 %.1fms p99 %.1fms; reuse-hit %.2f (%d/%d queries)\n",
		rep.p50Ms, rep.p95Ms, rep.p99Ms, rep.reuseHitRatio, rep.queriesWithReuse, rep.completed)
	for name, tl := range rep.perTenant {
		fmt.Printf("restore-load:   %s: %d completed, %d rejected, p50 %.1fms, %d queries with reuse\n",
			name, tl.completed, tl.rejected, tl.p50Ms, tl.queriesWithReuse)
	}

	if rep.completed < *minDoneFlag {
		fail(fmt.Errorf("assertion: completed %d < %d", rep.completed, *minDoneFlag))
	}
	if rep.queriesWithReuse < *minReuseFlag {
		fail(fmt.Errorf("assertion: queries with reuse %d < %d", rep.queriesWithReuse, *minReuseFlag))
	}
	if rep.rejected < *minRejFlag {
		fail(fmt.Errorf("assertion: rejected %d < %d", rep.rejected, *minRejFlag))
	}
	if *reqReuseFlag != "" {
		for _, tenant := range strings.Split(*reqReuseFlag, ",") {
			tl := rep.perTenant[tenant]
			if tl == nil || tl.queriesWithReuse == 0 {
				fail(fmt.Errorf("assertion: tenant %q shows no reuse", tenant))
			}
		}
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
		oc.reused = res.Result.JobsReused
		oc.rewrites = int64(len(res.Result.Rewrites))
	}
	return oc
}

func buildReport(sessionCount map[string]int, outcomes []queryOutcome, wall time.Duration) *report {
	rep := &report{wallSeconds: wall.Seconds(), perTenant: map[string]*tenantReport{}}
	latAll := []float64{}
	latTenant := map[string][]float64{}
	for name := range sessionCount {
		rep.perTenant[name] = &tenantReport{}
	}
	for _, oc := range outcomes {
		tl := rep.perTenant[oc.tenant]
		if tl == nil {
			tl = &tenantReport{}
			rep.perTenant[oc.tenant] = tl
		}
		rep.rejected += oc.rejected
		tl.rejected += oc.rejected
		switch oc.state {
		case "done":
			rep.completed++
			tl.completed++
			if oc.reused > 0 || oc.rewrites > 0 {
				rep.queriesWithReuse++
				tl.queriesWithReuse++
			}
			latAll = append(latAll, oc.latencyMs)
			latTenant[oc.tenant] = append(latTenant[oc.tenant], oc.latencyMs)
		case "canceled":
			rep.canceled++
		default:
			rep.failed++
		}
	}
	sort.Float64s(latAll)
	rep.p50Ms = exp.Percentile(latAll, 50)
	rep.p95Ms = exp.Percentile(latAll, 95)
	rep.p99Ms = exp.Percentile(latAll, 99)
	if rep.wallSeconds > 0 {
		rep.throughput = float64(rep.completed) / rep.wallSeconds
	}
	if rep.completed > 0 {
		rep.reuseHitRatio = float64(rep.queriesWithReuse) / float64(rep.completed)
	}
	for name, lats := range latTenant {
		sort.Float64s(lats)
		rep.perTenant[name].p50Ms = exp.Percentile(lats, 50)
	}
	return rep
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "restore-load:", err)
	os.Exit(1)
}
