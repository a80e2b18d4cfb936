// STORE staging suite: a query's user outputs are written under its
// private stage path and renamed into place at commit. These tests pin
// the rules around that: STORE paths of one script may not overlap, a
// STORE path may not contain its own stage path, and a commit that
// fails part-way leaves no stage behind.
package restore_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/tuple"
)

// stagingSystem is a reuse-enabled system over fs holding a small
// events dataset.
func stagingSystem(t *testing.T, fs dfs.Backend) *restore.System {
	t.Helper()
	cfg := restore.DefaultConfig()
	cfg.Options = restore.Options{Reuse: true, KeepWholeJobs: true, Heuristic: restore.Aggressive}
	sys, err := restore.Recover(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	var rows []tuple.Tuple
	for i := 0; i < 40; i++ {
		rows = append(rows, tuple.Tuple{fmt.Sprintf("u%d", i%7), int64(i)})
	}
	if err := sys.WriteDataset("events", rows); err != nil {
		t.Fatal(err)
	}
	return sys
}

// twoStores is a two-job script with a second STORE; the two paths are
// filled in.
const twoStores = `
A = load 'events' as (user, amount);
B = group A by user;
C = foreach B generate group, COUNT(A) as n;
D = group C by n;
E = foreach D generate group, COUNT(C);
F = filter A by amount > 3;
store E into '%s';
store F into '%s';
`

func fileSet(fs dfs.Backend) string { return strings.Join(fs.List(""), "\n") }

// TestOverlappingStoresRejected: a script storing twice into one path,
// or into a path and one nested under it, is rejected at submission —
// every time, naming both paths — and no job runs.
func TestOverlappingStoresRejected(t *testing.T) {
	sys := stagingSystem(t, deltaFS(t))
	before := fileSet(sys.FS())
	for _, paths := range [][2]string{{"out", "out"}, {"out", "out/sub"}} {
		script := fmt.Sprintf(twoStores, paths[0], paths[1])
		for run := 0; run < 20; run++ {
			q, err := sys.Submit(context.Background(), script, restore.WithWorkers(2))
			if err == nil {
				_, err = q.Wait()
				t.Fatalf("%v run %d: overlapping STOREs accepted (Wait: %v)", paths, run, err)
			}
			if !strings.Contains(err.Error(), `"`+paths[0]+`"`) || !strings.Contains(err.Error(), `"`+paths[1]+`"`) {
				t.Fatalf("%v run %d: error %q does not name both paths", paths, run, err)
			}
		}
	}
	if after := fileSet(sys.FS()); after != before {
		t.Fatalf("rejected scripts wrote to the DFS:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestStoreIntoStageAncestorRejected: every query's stage path lies
// under the managed tmp namespace, so a STORE into it or its root could
// never be renamed into place. It is rejected before any job runs, and
// nothing is written.
func TestStoreIntoStageAncestorRejected(t *testing.T) {
	sys := stagingSystem(t, deltaFS(t))
	before := fileSet(sys.FS())
	tmp := core.NamespacePath("", "tmp")
	for _, path := range []string{tmp, "/" + tmp + "/", core.NamespacePath("")} {
		q, err := sys.Submit(context.Background(), fmt.Sprintf(twoStores, "out/ok", path), restore.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Wait(); err == nil || !strings.Contains(err.Error(), "stage path") {
			t.Fatalf("STORE into %q: Wait error = %v, want the stage-path rejection", path, err)
		}
		for id, st := range q.Status().Jobs {
			if st != restore.JobPending {
				t.Errorf("STORE into %q: job %s is %v, want pending", path, id, st)
			}
		}
	}
	if after := fileSet(sys.FS()); after != before {
		t.Fatalf("rejected queries wrote to the DFS:\nbefore: %s\nafter:  %s", before, after)
	}
}

// failRenameFS fails every rename onto one destination path.
type failRenameFS struct {
	dfs.Backend
	to string
}

var errInjectedRename = errors.New("injected rename failure")

func (f failRenameFS) Rename(from, to string) (int64, error) {
	if to == f.to {
		return 0, errInjectedRename
	}
	return f.Backend.Rename(from, to)
}

// TestCommitFailureDiscardsStages: when one output's rename fails at
// commit, Execute returns the error and deletes every stage not yet
// renamed; outputs are committed in user-path order, so those before
// the failing one are published and those after it are not.
func TestCommitFailureDiscardsStages(t *testing.T) {
	for _, failing := range []string{"out/a", "out/b"} {
		for run := 0; run < 10; run++ {
			fs := failRenameFS{Backend: deltaFS(t), to: failing}
			sys := stagingSystem(t, fs)
			_, err := sys.ExecuteContext(context.Background(), fmt.Sprintf(twoStores, "out/a", "out/b"), restore.WithWorkers(2))
			if !errors.Is(err, errInjectedRename) {
				t.Fatalf("rename of %s failing, run %d: err = %v, want the injected failure", failing, run, err)
			}
			for _, p := range fs.List("") {
				if strings.Contains(p, "/.staged/") {
					t.Fatalf("rename of %s failing, run %d: stage left behind: %s", failing, run, p)
				}
			}
			if got, want := fs.Exists("out/a"), failing == "out/b"; got != want {
				t.Fatalf("rename of %s failing, run %d: out/a published = %v, want %v", failing, run, got, want)
			}
			if fs.Exists("out/b") {
				t.Fatalf("rename of %s failing, run %d: out/b published", failing, run)
			}
		}
	}
}
