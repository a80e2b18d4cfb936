package restore

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/tuple"
)

// stressVariants are the query shapes the concurrent clients mix: all
// share the `distinct events` prefix (so every client matches, inserts
// and reuses against the same repository entries) and diverge after it.
// %s is the per-client output path.
var stressVariants = []string{
	`
a = load 'events' as (user, amount);
b = distinct a;
c = filter b by amount > 4;
store c into '%s';
`,
	`
a = load 'events' as (user, amount);
b = distinct a;
g = group b by user;
s = foreach g generate group, SUM(b.amount);
store s into '%s';
`,
	`
a = load 'events' as (user, amount);
b = distinct a;
c = foreach b generate user;
d = distinct c;
store d into '%s';
`,
	`
a = load 'events' as (user, amount);
b = distinct a;
g = group b by user;
s = foreach g generate group, COUNT(b);
store s into '%s';
`,
}

// TestConcurrentExecuteStress is the multi-client serving check: N
// goroutines issue mixed shared-prefix queries against one
// restore.System with reuse enabled. Every client must observe exactly
// the rows a cold serial system produces, and the repository must be
// internally consistent afterwards. Run with -race in CI.
func TestConcurrentExecuteStress(t *testing.T) {
	const clients = 8
	const iters = 4

	rows := []Tuple{
		{"alice", int64(10)},
		{"bob", int64(5)},
		{"alice", int64(7)},
		{"carol", int64(2)},
		{"dave", int64(9)},
		{"erin", int64(3)},
	}

	// Golden answers from a cold, reuse-free, serial system.
	golden := make([][]Tuple, len(stressVariants))
	{
		base := newTestSystem(Options{})
		if err := base.WriteDataset("events", rows); err != nil {
			t.Fatal(err)
		}
		for v, q := range stressVariants {
			out := fmt.Sprintf("golden/v%d", v)
			res, err := base.Execute(fmt.Sprintf(q, out))
			if err != nil {
				t.Fatalf("golden variant %d: %v", v, err)
			}
			got, err := res.Output(out)
			if err != nil {
				t.Fatalf("golden variant %d output: %v", v, err)
			}
			golden[v] = sorted(got)
		}
	}

	sys := newTestSystem(Options{Reuse: true, KeepWholeJobs: true, Heuristic: Conservative})
	if err := sys.WriteDataset("events", rows); err != nil {
		t.Fatal(err)
	}

	// One more goroutine reads every stats surface and sweeps while the
	// clients submit: a System has no lock of its own, so each surface
	// must be safe on its own (run under -race).
	stop := make(chan struct{})
	observed := make(chan struct{})
	go func() {
		defer close(observed)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sys.StorageStats()
			sys.MatcherStats()
			sys.BatchCacheStats()
			sys.DeltaStats()
			sys.LatencyStats()
			sys.Sweep()
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				v := (c + i) % len(stressVariants)
				out := fmt.Sprintf("out/c%d/i%d", c, i)
				res, err := sys.Execute(fmt.Sprintf(stressVariants[v], out))
				if err != nil {
					t.Errorf("client %d iter %d: %v", c, i, err)
					return
				}
				got, err := res.Output(out)
				if err != nil {
					t.Errorf("client %d iter %d output: %v", c, i, err)
					return
				}
				got = sorted(got)
				want := golden[v]
				if len(got) != len(want) {
					t.Errorf("client %d iter %d variant %d: %v, want %v", c, i, v, got, want)
					return
				}
				for k := range want {
					if !tuple.Equal(got[k], want[k]) {
						t.Errorf("client %d iter %d variant %d row %d: %v, want %v", c, i, v, k, got[k], want[k])
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-observed

	// Repository consistency after the storm: the scan list and the
	// fingerprint index must agree, with no duplicate fingerprints.
	repo := sys.Repository()
	entries := RepositoryEntries(repo)
	if repo.Len() != len(entries) {
		t.Errorf("Len=%d but Entries()=%d", repo.Len(), len(entries))
	}
	if len(entries) == 0 {
		t.Fatalf("stress run stored nothing")
	}
	seen := map[string]string{}
	for _, e := range entries {
		fp := e.Plan.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("duplicate fingerprint in scan list: %s and %s", prev, e.ID)
		}
		seen[fp] = e.ID
		cur := repo.Lookup(e.Plan)
		if cur == nil {
			t.Errorf("entry %s missing from fingerprint index", e.ID)
		} else if cur.Plan.Fingerprint() != fp {
			t.Errorf("index maps %s to a different plan", e.ID)
		}
	}

	// The repository must still serve rewrites after the storm.
	res, err := sys.Execute(fmt.Sprintf(stressVariants[1], "out/final"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rewrites) == 0 {
		t.Errorf("warm repository produced no rewrites after concurrent serving")
	}
}
