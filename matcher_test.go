package restore

import (
	"fmt"
	"testing"

	"repro/internal/tuple"
)

// matcherWorkload is a small multi-query mix with shared prefixes:
// repeated aggregations, a prefix extension, a join over two datasets,
// and a fresh-dataset miss. Executed in order it exercises whole-job
// reuse, sub-plan reuse, multi-round rewrites and repository misses.
var matcherWorkload = []string{
	`
A = load 'events' as (user, amount);
B = group A by user;
C = foreach B generate group, SUM(A.amount);
store C into 'w/totals1';
`,
	`
A = load 'events' as (user, amount);
B = group A by user;
C = foreach B generate group, SUM(A.amount);
store C into 'w/totals2';
`,
	`
A = load 'events' as (user, amount);
B = group A by user;
C = foreach B generate group, SUM(A.amount);
D = filter C by $1 > 5;
store D into 'w/bigspenders';
`,
	`
A = load 'events' as (user, amount);
B = foreach A generate user;
N = load 'names' as (user, city);
M = foreach N generate user, city;
J = join M by user, B by user;
store J into 'w/joined';
`,
	`
A = load 'other' as (k, v);
G = group A by k;
S = foreach G generate group, COUNT(A);
store S into 'w/other';
`,
}

func seedMatcherData(t *testing.T, sys *System) {
	t.Helper()
	seedEvents(t, sys)
	if err := sys.WriteDataset("names", []Tuple{
		{"alice", "basel"}, {"bob", "bern"}, {"carol", "chur"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteDataset("other", []Tuple{
		{"x", int64(1)}, {"y", int64(2)}, {"x", int64(3)},
	}); err != nil {
		t.Fatal(err)
	}
}

// withLinearScan routes one query's matcher through the reference
// sequential scan kept in internal/core (Rewriter.LinearScan) — the
// oracle side of the indexed-vs-scan differential suite.
func withLinearScan() ExecOption {
	return func(c *execConfig) { c.linearScan = true }
}

// runMatcherWorkload executes the workload serially (Workers 1, so
// entry IDs and scan order are deterministic) and returns per-run
// summaries plus the outputs of the final states.
func runMatcherWorkload(t *testing.T, linear bool) (sims []string, rewrites []string, outputs map[string][]Tuple, stats MatcherStats) {
	t.Helper()
	sys := newTestSystem(Options{
		Reuse: true, KeepWholeJobs: true, Heuristic: Aggressive,
	})
	execOpts := []ExecOption{WithWorkers(1)}
	if linear {
		execOpts = append(execOpts, withLinearScan())
	}
	seedMatcherData(t, sys)
	outputs = map[string][]Tuple{}
	for i, src := range matcherWorkload {
		res, err := sys.ExecuteContext(nil, src, execOpts...)
		if err != nil {
			t.Fatalf("linear=%v run %d: %v", linear, i, err)
		}
		sims = append(sims, fmt.Sprintf("run%d:%v", i, res.SimTime))
		for _, ev := range res.Rewrites {
			rewrites = append(rewrites, fmt.Sprintf("run%d:%s->%s@%s whole=%v", i, ev.JobID, ev.EntryID, ev.Path, ev.WholeJob))
		}
		for user := range res.FinalOutputs {
			rows, err := res.Output(user)
			if err != nil {
				t.Fatalf("linear=%v run %d output %s: %v", linear, i, user, err)
			}
			outputs[user] = sorted(rows)
		}
	}
	return sims, rewrites, outputs, sys.MatcherStats()
}

// TestIndexedMatcherMatchesLinearScanEndToEnd is the system half of the
// differential suite: the whole workload must behave identically —
// per-run SimTime, the exact rewrite sequence (entries, paths,
// whole-job flags), and every output's rows — with the signature index
// and with the paper's sequential scan.
func TestIndexedMatcherMatchesLinearScanEndToEnd(t *testing.T) {
	simsIdx, rwIdx, outIdx, stIdx := runMatcherWorkload(t, false)
	simsScan, rwScan, outScan, stScan := runMatcherWorkload(t, true)

	if fmt.Sprint(simsIdx) != fmt.Sprint(simsScan) {
		t.Errorf("SimTimes diverge:\nindexed: %v\nscan:    %v", simsIdx, simsScan)
	}
	if fmt.Sprint(rwIdx) != fmt.Sprint(rwScan) {
		t.Errorf("rewrite sequences diverge:\nindexed: %v\nscan:    %v", rwIdx, rwScan)
	}
	if len(outIdx) != len(outScan) {
		t.Fatalf("output sets diverge: %d vs %d", len(outIdx), len(outScan))
	}
	for path, want := range outScan {
		got := outIdx[path]
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows vs %d", path, len(got), len(want))
		}
		for i := range want {
			if !tuple.Equal(got[i], want[i]) {
				t.Errorf("%s row %d: %v vs %v", path, i, got[i], want[i])
			}
		}
	}

	// Each system used only its own mode, and both found the same
	// number of matches.
	if stIdx.Probes == 0 || stIdx.Scans != 0 {
		t.Errorf("indexed system ran scans: %+v", stIdx)
	}
	if stScan.Scans == 0 || stScan.Probes != 0 {
		t.Errorf("scan system ran probes: %+v", stScan)
	}
	if stIdx.Matches != stScan.Matches {
		t.Errorf("match counts diverge: indexed %d, scan %d", stIdx.Matches, stScan.Matches)
	}
	// The point of the index: candidates nominated must not exceed the
	// entries the scan had to visit.
	if stIdx.Candidates > stScan.ScanVisited {
		t.Errorf("index nominated %d candidates vs %d scan visits", stIdx.Candidates, stScan.ScanVisited)
	}
}

// TestNamespaceRootEndToEnd runs a storing-and-reusing workload on a
// System with Config.NamespaceRoot set: managed data must land under
// the root, user datasets named under tmp/ and restore/ must survive
// sweeps, and reuse must still work.
func TestNamespaceRootEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Options = Options{Reuse: true, KeepWholeJobs: true, Heuristic: Aggressive}
	cfg.NamespaceRoot = "sysdata"
	sys := New(cfg)
	defer sys.Close()
	seedEvents(t, sys)

	// User datasets named like the managed namespaces.
	if err := sys.WriteDataset("tmp/mine", []Tuple{{"keep", int64(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteDataset("restore/archive", []Tuple{{"keep", int64(2)}}); err != nil {
		t.Fatal(err)
	}

	script := `
A = load 'events' as (user, amount);
B = group A by user;
C = foreach B generate group, SUM(A.amount);
store C into 'w/out';
`
	if _, err := sys.Execute(script); err != nil {
		t.Fatal(err)
	}
	// Managed namespaces live under the root.
	if ds := sys.FS().Datasets("sysdata"); len(ds) == 0 {
		t.Fatalf("no managed datasets under the namespace root")
	}
	res, err := sys.Execute(script)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rewrites) == 0 {
		t.Errorf("second run reused nothing under a namespace root")
	}

	sys.Sweep()
	for _, p := range []string{"tmp/mine", "restore/archive"} {
		rows, err := sys.ReadDataset(p)
		if err != nil || len(rows) != 1 {
			t.Errorf("user dataset %s lost after sweep: rows=%v err=%v", p, rows, err)
		}
	}
}
