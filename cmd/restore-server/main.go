// Command restore-server runs the multi-tenant ReStore query service:
// a long-lived HTTP front-end over one shared System, so many clients'
// Pig Latin queries reuse each other's MapReduce job outputs across
// sessions and process restarts.
//
// Usage:
//
//	restore-server -listen :8080                       # memory backend, tiny quotas
//	restore-server -backend disk -data-dir /var/restore -durable
//	restore-server -quota analytics=3:8:32 -quota adhoc=1:2:8
//
// The engine flags are restore-cli's, declared once in
// internal/engineflags (-backend/-data-dir, -durable and its tuning,
// -scale, -max-repo-mb/-evict, …): the server opens the same DFS,
// Recovers the repository from the durable log when one exists, and
// generates the PigMix instance only when the backend doesn't already
// hold it — so with `-backend disk -durable`, killing and restarting
// the server comes back warm and answers repeated queries with reuse
// immediately.
//
// Serving flags shape admission: -max-concurrent is the global slot
// pool, -default-weight/-default-inflight/-default-queued the quota of
// unlisted tenants, and each -quota name=weight:inflight:queued entry
// overrides one tenant. Saturation degrades into weighted fair
// sharing; a tenant over its queue bound gets 429 + Retry-After.
//
// SIGINT/SIGTERM drains gracefully (stop accepting, let running
// queries finish); a second signal cancels everything still live.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/engineflags"
	"repro/internal/service"
)

// quotaFlags collects repeatable -quota name=weight:inflight:queued
// entries.
type quotaFlags map[string]service.TenantQuota

func (q quotaFlags) String() string { return fmt.Sprintf("%d quotas", len(q)) }

func (q quotaFlags) Set(spec string) error {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=weight:inflight:queued, got %q", spec)
	}
	parts := strings.Split(rest, ":")
	if len(parts) != 3 {
		return fmt.Errorf("want name=weight:inflight:queued, got %q", spec)
	}
	nums := make([]int, 3)
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 {
			return fmt.Errorf("bad quota number %q in %q", p, spec)
		}
		nums[i] = n
	}
	q[name] = service.TenantQuota{Weight: nums[0], MaxInFlight: nums[1], MaxQueued: nums[2]}
	return nil
}

func main() {
	quotas := quotaFlags{}
	flag.Var(quotas, "quota", "per-tenant quota name=weight:inflight:queued (repeatable)")
	ef := engineflags.Register(flag.CommandLine, "tiny", true, "aggressive")
	var (
		listenFlag   = flag.String("listen", ":8080", "HTTP listen address")
		maxConcFlag  = flag.Int("max-concurrent", 16, "admitted-and-running queries across all tenants")
		defWeight    = flag.Int("default-weight", 1, "fair-share weight of unlisted tenants")
		defInflight  = flag.Int("default-inflight", 4, "in-flight cap of unlisted tenants")
		defQueued    = flag.Int("default-queued", 16, "waiting-queue bound of unlisted tenants")
		retryFlag    = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		streamFlag   = flag.Duration("stream-interval", 100*time.Millisecond, "status poll period of /queries/{id}/events")
		retainFlag   = flag.Int("retain-done", 4096, "finished queries kept inspectable, each as its frozen record and trace (about 2 KB untraced)")
		drainFlag    = flag.Duration("drain-timeout", 30*time.Second, "grace period before live queries are hard-cancelled on shutdown")
		slowMSFlag   = flag.Int("slow-query-ms", 0, "retain traces of queries at least this slow at /debug/slow (0 = off)")
		slowRingFlag = flag.Int("slow-ring", 64, "slow-query records retained")
		pprofFlag    = flag.Bool("pprof", true, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	eng, err := ef.Resolve()
	if err != nil {
		fail(err)
	}
	fs, closeFS, err := ef.OpenBackend()
	if err != nil {
		fail(err)
	}
	defer closeFS()

	sys, err := ef.OpenSystem(&eng, fs, "restore-server: ")
	if err != nil {
		fail(err)
	}
	if ef.Durable {
		ds := sys.DurabilityStats()
		fmt.Printf("restore-server: durable log at %s, %d entries recovered\n", ds.Root, ds.RecoveredEntries)
	}

	srv := service.NewServer(sys, service.Config{
		MaxConcurrent: *maxConcFlag,
		DefaultQuota: service.TenantQuota{
			Weight: *defWeight, MaxInFlight: *defInflight, MaxQueued: *defQueued,
		},
		Quotas:             quotas,
		DefaultOptions:     eng.Options,
		DefaultWorkers:     ef.Workers,
		RetryAfter:         *retryFlag,
		StreamInterval:     *streamFlag,
		RetainDone:         *retainFlag,
		SlowQueryThreshold: time.Duration(*slowMSFlag) * time.Millisecond,
		SlowRingSize:       *slowRingFlag,
	})

	// The pprof handlers mount on an outer mux wrapping the API so the
	// service package stays free of debug endpoints.
	handler := srv.Handler()
	if *pprofFlag {
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", handler)
		handler = outer
	}
	httpSrv := &http.Server{Addr: *listenFlag, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("restore-server: serving on %s (%d tenant quotas, %d global slots)\n",
		*listenFlag, len(quotas), *maxConcFlag)

	select {
	case err := <-errc:
		// Listener failed before any signal.
		srv.Close()
		fail(err)
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way
	fmt.Println("restore-server: draining (signal again to hard-cancel)")

	// Hard-cancel path: second signal or drain timeout aborts the live
	// queries so Close can finish.
	hardCtx, hardStop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer hardStop()
	done := make(chan struct{})
	go func() {
		select {
		case <-hardCtx.Done():
		case <-time.After(*drainFlag):
		case <-done:
			return
		}
		n := srv.CancelAll()
		fmt.Printf("restore-server: hard-cancelled %d live queries\n", n)
	}()

	shutCtx, cancel := context.WithTimeout(context.Background(), *drainFlag+5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shutCtx)
	if err := srv.Close(); err != nil {
		fail(err)
	}
	close(done)
	fmt.Println("restore-server: drained")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "restore-server:", err)
	os.Exit(1)
}
