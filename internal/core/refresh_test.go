package core

import (
	"strings"
	"testing"

	"repro/internal/pigmix"
)

// TestRefreshLeavesNoDeadCacheEntries: a refresh writes its delta (the
// engine caches it write-through), merges it once and deletes it. No
// one names that path again, so nothing but the delete itself can take
// the decoded copy out of the batch cache. After every refresh, each
// refresh dataset the cache holds must still exist. (Renamed STORE
// staging and deleted temporaries leave dead entries the same way; they
// keep their plain Delete for now, see ROADMAP, so only the refresh
// namespace is held to this.)
func TestRefreshLeavesNoDeadCacheEntries(t *testing.T) {
	h := newHarness(t, Options{Reuse: true, KeepWholeJobs: true, Heuristic: Aggressive})
	if err := pigmix.GenerateNetTraffic(h.fs, pigmix.NetTrafficDays, 150, 42); err != nil {
		t.Fatal(err)
	}
	q, err := pigmix.Get("N1")
	if err != nil {
		t.Fatal(err)
	}
	h.run(t, q.Script)
	for cycle := 1; cycle <= 20; cycle++ {
		if _, err := pigmix.AppendNetTrafficDay(h.fs, 150, 42); err != nil {
			t.Fatal(err)
		}
		h.run(t, q.Script)
		if got := h.driver.DeltaStats(); got.Refreshes < int64(cycle) || got.Failed != 0 {
			t.Fatalf("cycle %d did not refresh: %+v", cycle, got)
		}
		for _, path := range h.eng.CachedPaths() {
			if strings.Contains(path, "/refresh/") && !h.fs.Exists(path) {
				t.Fatalf("cycle %d: the batch cache still holds %s, which was deleted", cycle, path)
			}
		}
	}
}
