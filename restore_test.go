package restore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/tuple"
)

func newTestSystem(opts Options) *System {
	cfg := DefaultConfig()
	cfg.Options = opts
	return New(cfg)
}

func seedEvents(t *testing.T, sys *System) {
	t.Helper()
	rows := []Tuple{
		{"alice", int64(10)},
		{"bob", int64(5)},
		{"alice", int64(7)},
		{"carol", int64(2)},
	}
	if err := sys.WriteDataset("events", rows); err != nil {
		t.Fatalf("WriteDataset: %v", err)
	}
}

const totalsScript = `
A = load 'events' as (user, amount);
B = group A by user;
C = foreach B generate group, SUM(A.amount);
store C into 'totals';
`

func sorted(rows []Tuple) []Tuple {
	sort.Slice(rows, func(i, j int) bool { return tuple.CompareTuples(rows[i], rows[j]) < 0 })
	return rows
}

func TestQuickstartFlow(t *testing.T) {
	sys := newTestSystem(Options{})
	seedEvents(t, sys)
	res, err := sys.Execute(totalsScript)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	rows, err := res.Output("totals")
	if err != nil {
		t.Fatalf("Output: %v", err)
	}
	rows = sorted(rows)
	want := []Tuple{
		{"alice", int64(17)},
		{"bob", int64(5)},
		{"carol", int64(2)},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v", rows)
	}
	for i := range want {
		if !tuple.Equal(rows[i], want[i]) {
			t.Errorf("row %d = %v, want %v", i, rows[i], want[i])
		}
	}
	if res.SimTime <= 0 {
		t.Errorf("SimTime = %v", res.SimTime)
	}
}

func TestExecuteParseError(t *testing.T) {
	sys := newTestSystem(Options{})
	if _, err := sys.Execute("not pig latin"); err == nil {
		t.Errorf("garbage should not parse")
	}
}

func TestExecuteMissingDataset(t *testing.T) {
	sys := newTestSystem(Options{})
	if _, err := sys.Execute(`A = load 'nope' as (x); store A into 'o';`); err == nil {
		t.Errorf("missing dataset should fail")
	}
}

func TestReuseAcrossExecutes(t *testing.T) {
	sys := newTestSystem(Options{Reuse: true, KeepWholeJobs: true, Heuristic: Aggressive})
	seedEvents(t, sys)
	r1, err := sys.Execute(totalsScript)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(r1.Stored) == 0 {
		t.Fatalf("first run stored nothing")
	}
	// r2 replaces r1's output, so r1's rows are read first.
	rows1, _ := r1.Output("totals")
	r2, err := sys.Execute(totalsScript)
	if err != nil {
		t.Fatalf("Execute#2: %v", err)
	}
	if len(r2.Rewrites) == 0 {
		t.Fatalf("second run reused nothing")
	}
	if _, err := r1.Output("totals"); !errors.Is(err, ErrOutputReplaced) {
		t.Errorf("first run's output after the second stored it: %v, want ErrOutputReplaced", err)
	}
	rows2, _ := r2.Output("totals")
	rows1, rows2 = sorted(rows1), sorted(rows2)
	if len(rows1) != len(rows2) {
		t.Fatalf("results differ: %v vs %v", rows1, rows2)
	}
	for i := range rows1 {
		if !tuple.Equal(rows1[i], rows2[i]) {
			t.Errorf("row %d differs: %v vs %v", i, rows1[i], rows2[i])
		}
	}
	if sys.Repository().Len() == 0 {
		t.Errorf("repository empty after storing runs")
	}
}

// TestDeletedInputTreeIsNotReused is the end-to-end regression for
// eviction Rule 4 under a tree delete: results stored over
// 'logs/events' must stop being valid when 'logs' — the input's parent
// directory, not the input dataset itself — is deleted. The repeated
// query must fail on the missing input exactly as it does when the
// leaf is deleted; answering it from the repository would return rows
// of data that no longer exists.
func TestDeletedInputTreeIsNotReused(t *testing.T) {
	for _, victim := range []string{"logs/events", "logs"} {
		sys := newTestSystem(Options{Reuse: true, KeepWholeJobs: true, Heuristic: Aggressive})
		if err := sys.WriteDataset("logs/events", []Tuple{{"alice", int64(10)}, {"bob", int64(5)}}); err != nil {
			t.Fatalf("WriteDataset: %v", err)
		}
		const script = `
A = load 'logs/events' as (user, amount);
B = group A by user;
C = foreach B generate group, SUM(A.amount);
store C into '%s';
`
		r1, err := sys.Execute(fmt.Sprintf(script, "totals"))
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if len(r1.Stored) == 0 {
			t.Fatalf("first run stored nothing")
		}
		if err := sys.FS().Delete(victim); err != nil {
			t.Fatalf("Delete(%s): %v", victim, err)
		}
		r2, err := sys.Execute(fmt.Sprintf(script, "totals2"))
		if err == nil {
			rows, _ := r2.Output("totals2")
			t.Errorf("after Delete(%s) the query succeeded with %d rewrites and rows %v; its input does not exist",
				victim, len(r2.Rewrites), rows)
		}
	}
}

func TestCompileReportsJobCount(t *testing.T) {
	sys := newTestSystem(Options{})
	wf, err := sys.compile(totalsScript, "tmp/c1")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if n := len(wf.Jobs); n != 1 {
		t.Errorf("jobs = %d, want 1", n)
	}
	wf2, err := sys.compile(`
A = load 'x' as (u, v);
B = group A by u;
C = foreach B generate group, COUNT(A) as n;
D = group C by n;
E = foreach D generate group, COUNT(C);
store E into 'o';
`, "tmp/c2")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if n2 := len(wf2.Jobs); n2 != 2 {
		t.Errorf("jobs = %d, want 2", n2)
	}
}

// TestWithOptionsSwitchesBehaviour: the ReStore switches belong to the
// query, not the System — two submissions on one System run under
// different options, and the System's defaults do not move.
func TestWithOptionsSwitchesBehaviour(t *testing.T) {
	sys := newTestSystem(Options{})
	seedEvents(t, sys)
	r1, err := sys.Execute(totalsScript)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Stored) != 0 {
		t.Errorf("storing disabled but entries created")
	}
	r2, err := sys.ExecuteContext(context.Background(), totalsScript, WithOptions(Options{Heuristic: Conservative}))
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Stored) == 0 {
		t.Errorf("conservative heuristic stored nothing")
	}
	if got := sys.cfg.Options; got != (Options{}) {
		t.Errorf("per-query options leaked into the System's defaults: %+v", got)
	}
}

// TestSimScaleAffectsSimTime: two Systems built at different
// Config.SimScale over identical data report different simulated times.
func TestSimScaleAffectsSimTime(t *testing.T) {
	run := func(scale float64) *Result {
		cfg := DefaultConfig()
		cfg.SimScale, cfg.RecordScale = scale, scale
		sys := New(cfg)
		seedEvents(t, sys)
		res, err := sys.Execute(totalsScript)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	small := run(1)
	big := run(1e6)
	if big.SimTime <= small.SimTime {
		t.Errorf("sim time should grow with scale: %v vs %v", small.SimTime, big.SimTime)
	}
}

func TestReadDatasetMissing(t *testing.T) {
	sys := newTestSystem(Options{})
	if _, err := sys.ReadDataset("absent"); err == nil {
		t.Errorf("missing dataset should error")
	}
}

func TestMultiStoreScript(t *testing.T) {
	sys := newTestSystem(Options{})
	seedEvents(t, sys)
	res, err := sys.Execute(`
A = load 'events' as (user, amount);
B = filter A by amount > 4;
C = foreach B generate user;
G = group B by user;
S = foreach G generate group, COUNT(B);
store C into 'big_spenders';
store S into 'counts';
`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	bs, err := res.Output("big_spenders")
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 { // alice 10, bob 5, alice 7
		t.Errorf("big_spenders = %v", bs)
	}
	cnt, err := res.Output("counts")
	if err != nil {
		t.Fatal(err)
	}
	if len(cnt) != 2 { // alice, bob
		t.Errorf("counts = %v", cnt)
	}
}

// TestConstantTypeIsPartOfTheSignature is the reproduction of a wrong
// answer from reuse: x*1 multiplies in int64 and x*1.0 in float64, so
// over 2^53+1 they differ, and a stored x*1 must not answer x*1.0.
// Reuse may change what a query costs, never what it returns.
func TestConstantTypeIsPartOfTheSignature(t *testing.T) {
	script := func(lit, out string) string {
		return fmt.Sprintf(`
a = load 'nums' as (x);
b = foreach a generate x * %s;
c = distinct b;
store c into '%s';
`, lit, out)
	}
	run := func(opts Options) string {
		t.Helper()
		sys := newTestSystem(opts)
		if err := sys.WriteDataset("nums", []Tuple{{int64(9007199254740993)}, {int64(3)}}); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Execute(script("1", "o1")); err != nil {
			t.Fatalf("Execute x*1: %v", err)
		}
		res, err := sys.Execute(script("1.0", "o2"))
		if err != nil {
			t.Fatalf("Execute x*1.0: %v", err)
		}
		rows, err := res.Output("o2")
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(sorted(rows))
	}
	want := run(Options{})
	if got := run(Options{Reuse: true, KeepWholeJobs: true, Heuristic: Aggressive}); got != want {
		t.Errorf("x*1.0 with reuse = %s, without = %s", got, want)
	}
}
