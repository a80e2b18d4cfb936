package restore_test

import (
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/pigmix"
)

// memNetSystem builds a system over a fresh in-memory net-traffic flow
// log, with no byte budget and no janitor: only the maintenance each
// query runs keeps its repository in check.
func memNetSystem(t *testing.T, opts restore.Options, durable bool) *restore.System {
	t.Helper()
	cfg := restore.DefaultConfig()
	cfg.Options = opts
	cfg.Durability.Enabled = durable
	sys, err := restore.Recover(cfg, dfs.New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if err := pigmix.GenerateNetTraffic(sys.FS(), pigmix.NetTrafficDays, netRows, netSeed); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestRepositoryStaysBoundedUnderAppends: each append-and-rerun cycle
// leaves the previous cycle's entries over the replaced outputs dead,
// and the maintenance after each query must remove them — without a
// budget or a janitor, the repository may not grow with the number of
// cycles. Every cycle's outputs must equal a reuse-off system's.
func TestRepositoryStaysBoundedUnderAppends(t *testing.T) {
	warm := memNetSystem(t, reuseOpts(), true)
	cold := memNetSystem(t, restore.Options{}, false)
	suite := func() {
		for _, name := range pigmix.NetTrafficSuite {
			runNet(t, warm, name)
			runNet(t, cold, name)
		}
	}
	suite()
	afterFirst := 0
	for cycle := 1; cycle <= 20; cycle++ {
		for _, sys := range []*restore.System{warm, cold} {
			if _, err := pigmix.AppendNetTrafficDay(sys.FS(), netRows, netSeed); err != nil {
				t.Fatal(err)
			}
		}
		suite()
		for _, name := range pigmix.NetTrafficSuite {
			q, err := pigmix.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if w, c := sortedRows(t, warm, q.Output), sortedRows(t, cold, q.Output); fmt.Sprint(w) != fmt.Sprint(c) {
				t.Fatalf("cycle %d %s: reuse-on output diverges from reuse-off:\nwarm: %v\ncold: %v", cycle, name, w, c)
			}
		}
		if cycle == 1 {
			afterFirst = warm.Repository().Len()
		}
	}
	if got := warm.Repository().Len(); got != afterFirst {
		t.Fatalf("repository holds %d entries after 20 cycles, %d after the first", got, afterFirst)
	}
}

// TestReplacedOutputsAreDeleted: a delta refresh replaces its entry with
// one whose output lives at a new path, and the next maintenance
// deletes the old output. After 40 append cycles, with no budget and no
// janitor, every dataset left under restore/ is some entry's output.
func TestReplacedOutputsAreDeleted(t *testing.T) {
	sys := memNetSystem(t, reuseOpts(), false)
	for cycle := 0; cycle <= 40; cycle++ {
		if cycle > 0 {
			if _, err := pigmix.AppendNetTrafficDay(sys.FS(), netRows, netSeed); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range pigmix.NetTrafficSuite {
			runNet(t, sys, name)
		}
	}
	if sys.DeltaStats().Refreshes == 0 {
		t.Fatal("no entry was refreshed; test premise broken")
	}
	outputs := map[string]bool{}
	for _, e := range restore.RepositoryEntries(sys.Repository()) {
		outputs[strings.Trim(e.OutputPath, "/")] = true
	}
	var orphans []string
	for _, ds := range sys.FS().Datasets(core.NamespacePath("", "restore")) {
		if !outputs[ds] {
			orphans = append(orphans, ds)
		}
	}
	if len(orphans) > 0 {
		t.Fatalf("%d datasets under restore/ are no entry's output, e.g. %s", len(orphans), orphans[0])
	}
}

// TestWriteDatasetInvalidatesAtNextQuery: a dataset rewritten through
// System.WriteDataset reaches the DFS change feed like any write, so
// the next query's maintenance removes the entries that read it.
func TestWriteDatasetInvalidatesAtNextQuery(t *testing.T) {
	cfg := restore.DefaultConfig()
	cfg.Options = reuseOpts()
	sys := restore.New(cfg)
	defer sys.Close()
	rows := func(vals ...int64) []restore.Tuple {
		var out []restore.Tuple
		for i, v := range vals {
			out = append(out, restore.Tuple{fmt.Sprintf("k%d", i%2), v})
		}
		return out
	}
	if err := sys.WriteDataset("in/w", rows(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	const reader = "A = load 'in/w' as (k, v);\nG = group A by k;\nS = foreach G generate group, SUM(A.v);\nstore S into 'out/w';\n"
	const other = "A = load 'in/other' as (k, v);\nD = distinct A;\nstore D into 'out/other';\n"
	if err := sys.WriteDataset("in/other", rows(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Execute(reader); err != nil {
		t.Fatal(err)
	}
	readers := func() int {
		n := 0
		for _, e := range restore.RepositoryEntries(sys.Repository()) {
			if _, ok := e.InputVersions["in/w"]; ok {
				n++
			}
		}
		return n
	}
	if readers() == 0 {
		t.Fatal("nothing stored over in/w; test premise broken")
	}
	if err := sys.WriteDataset("in/w", rows(10, 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Execute(other); err != nil {
		t.Fatal(err)
	}
	if n := readers(); n != 0 {
		t.Fatalf("%d entries over the rewritten dataset survived the next query's maintenance", n)
	}
	if _, err := sys.Execute(reader); err != nil {
		t.Fatal(err)
	}
	got, err := sys.ReadDataset("out/w")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[(k0,10) (k1,20)]" && fmt.Sprint(got) != "[(k1,20) (k0,10)]" {
		t.Fatalf("rerun over the rewritten dataset read %v", got)
	}
}
