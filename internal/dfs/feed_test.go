package dfs_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/dfs"
	"repro/internal/dfs/dfstest"
)

// TestFeedReportsEveryBump: every mutating call appears in the change
// feed, once per dataset it bumps, with exactly the version Version
// returns right after it; a call that changes nothing appears not at
// all.
func TestFeedReportsEveryBump(t *testing.T) {
	fs := dfstest.New(t)
	_, cursor, _ := fs.Changes(0)
	step := func(name string, do func() error, want ...string) {
		t.Helper()
		if err := do(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		changes, next, complete := fs.Changes(cursor)
		if !complete || next != cursor+int64(len(changes)) {
			t.Fatalf("%s: feed from %d read %d changes up to %d, complete %v", name, cursor, len(changes), next, complete)
		}
		cursor = next
		var got []string
		for _, c := range changes {
			if v := fs.Version(c.Dataset); c.Version != v {
				t.Fatalf("%s: the feed has %s at version %d, Version says %d", name, c.Dataset, c.Version, v)
			}
			got = append(got, c.Dataset)
		}
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: the feed reports %v, want %v", name, got, want)
		}
	}
	write := func(p, data string) func() error {
		return func() error { return fs.WriteFile(p, []byte(data)) }
	}

	step("create", func() error {
		w := fs.Create("d/part-00000")
		if _, err := w.Write([]byte("a\n")); err != nil {
			return err
		}
		return w.Close()
	}, "d")
	step("write a part", write("d/part-00001", "b\n"), "d")
	step("write a file", write("s", "x"), "s")
	step("write n", write("n/part-00000", "1\n"), "n")
	step("write n/x", write("n/x/part-00000", "2\n"), "n/x")
	step("delete a tree", func() error { return fs.Delete("n") }, "n", "n/x")
	step("rename", func() error { _, err := fs.Rename("d", "e"); return err }, "d", "e")
	step("rename over", func() error { _, err := fs.Rename("s", "e/part-00000"); return err }, "e", "s")
	step("write if", func() error {
		if _, ok := fs.WriteFileIf("lease", []byte("l"), fs.Version("lease")); !ok {
			return fmt.Errorf("not applied")
		}
		return nil
	}, "lease")
	step("lost write if", func() error {
		if _, ok := fs.WriteFileIf("lease", []byte("l"), 0); ok {
			return fmt.Errorf("applied against a stale version")
		}
		return nil
	})
	step("remove if", func() error {
		if !fs.RemoveFileIf("lease", fs.Version("lease")) {
			return fmt.Errorf("not applied")
		}
		return nil
	}, "lease")
	step("failed delete", func() error {
		if fs.Delete("absent") == nil {
			return fmt.Errorf("deleted an absent path")
		}
		return nil
	})
}

// TestFeedOverrunIsIncomplete: the feed holds the last FeedRing bumps. A
// cursor that far behind still reads them all; one bump further, and
// for a cursor the feed never issued, it reports an incomplete feed.
func TestFeedOverrunIsIncomplete(t *testing.T) {
	fs := dfstest.New(t)
	_, cursor, _ := fs.Changes(0)
	for i := range dfs.FeedRing {
		if err := fs.WriteFile("f", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	changes, next, complete := fs.Changes(cursor)
	if !complete || len(changes) != dfs.FeedRing || changes[0].Version != 1 || changes[dfs.FeedRing-1].Version != dfs.FeedRing {
		t.Fatalf("a cursor FeedRing bumps behind read %d changes, complete %v", len(changes), complete)
	}
	if err := fs.WriteFile("f", nil); err != nil {
		t.Fatal(err)
	}
	if changes, next2, complete := fs.Changes(cursor); complete || changes != nil || next2 != next+1 {
		t.Fatalf("an overrun cursor read %d changes up to %d, complete %v", len(changes), next2, complete)
	}
	for _, bad := range []int64{-1, next + 2} {
		if _, _, complete := fs.Changes(bad); complete {
			t.Fatalf("cursor %d read a complete feed", bad)
		}
	}
	if changes, _, complete := fs.Changes(next + 1); !complete || len(changes) != 0 {
		t.Fatalf("the head cursor read %d changes, complete %v", len(changes), complete)
	}
}
