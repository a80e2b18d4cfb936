//go:build !race

package service

import (
	"fmt"
	"net/http"
	"runtime"
	"testing"

	"repro"
)

// maxRetainedPerQuery bounds the heap one finished, untraced query
// keeps alive while the server retains it: its frozen wire record and
// its registry slot.
const maxRetainedPerQuery = 3 << 10

// heapAfterGC is the live heap once two collections have run (the
// second frees what the first only unlinked, such as sync.Pool
// victims).
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFinishedQueryRetention gates what a long-lived server holds per
// query served. Every query stores the same path and is answered from
// the same repository entry, so neither the DFS nor the repository
// grows; each finished query stays in the registry (up to
// Config.RetainDone), so the heap grows by what one retained query
// costs. It is excluded under the race detector, which changes what
// every allocation costs.
func TestFinishedQueryRetention(t *testing.T) {
	_, base, client := newRealServer(t, Config{DefaultOptions: restore.Options{
		Reuse: true, KeepWholeJobs: true, Heuristic: restore.Aggressive, DisableTrace: true,
	}})
	sess := newSession(t, client, base, "acme")
	run := func(i int) {
		// Overwrites the last query's output.
		id, resp, data := submit(t, client, base, submitRequest{
			Session: sess, Script: fmt.Sprintf(eventsScript, "out/totals"),
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, data)
		}
		if info := waitResult(t, client, base, id); info.State != StateDone {
			t.Fatalf("query %d: %+v", i, info)
		}
	}
	// Warm up first, so the repository entry, the connection and the
	// pools exist before the baseline.
	const warm, n = 50, 1000
	for i := 0; i < warm; i++ {
		run(i)
	}
	before := heapAfterGC()
	for i := warm; i < warm+n; i++ {
		run(i)
	}
	after := heapAfterGC()
	per := (int64(after) - int64(before)) / n
	t.Logf("heap retained per finished query: %d bytes (%d → %d over %d queries)", per, before, after, n)
	if per > maxRetainedPerQuery {
		t.Errorf("each finished query retains %d bytes of heap, want at most %d", per, maxRetainedPerQuery)
	}
}
