package dfs

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// TestInventoryMemo holds FileStats's per-directory memo (dir.inv) to a
// fresh listing: after each kind of change a file can make below a
// directory, FileStats at every probe answers what the flat-scan
// reference answers, on both backends, while two readers list the tree
// concurrently (run it with -race). A directory nothing changed below
// answers from its memo: the same backing array as before.
func TestInventoryMemo(t *testing.T) {
	write := func(p string, n int) parityOp {
		return func(fs Backend) string { return fmt.Sprint(fs.WriteFile(p, bytes.Repeat([]byte{'x'}, n))) }
	}
	remove := func(p string) parityOp {
		return func(fs Backend) string { return fmt.Sprint(fs.Delete(p)) }
	}
	rename := func(src, dst string) parityOp {
		return func(fs Backend) string { return fmt.Sprint(fs.Rename(src, dst)) }
	}
	steps := []struct {
		name string
		op   parityOp
		tmp  bool // the step changes a file under tmp/
	}{
		{"create", write("in/a/part-00000", 3), false},
		{"create another", write("in/a/part-00001", 4), false},
		{"overwrite to a new size", write("in/a/part-00000", 9), false},
		{"write in a nested subdirectory", write("in/a/sub/part-00000", 5), false},
		{"inline file named like a directory", write("in/a/sub", 2), false},
		{"inline file sorting inside the tree", write("in/a.b", 6), false},
		{"delete a file", remove("in/a/part-00001"), false},
		{"stage outside", write("tmp/q/part-00000", 7), true},
		{"rename in", rename("tmp/q", "in/a/moved"), true},
		{"rename out", rename("in/a/moved", "tmp/r"), true},
		{"delete a tree", remove("in/a/sub"), false},
		{"delete the last file", remove("in/a/part-00000"), false},
	}
	probes := []string{"in", "in/a", "in/a/sub", "in/a/moved", "in/a.b", "in/a/part-00000", "tmp", "tmp/q", "tmp/r"}
	forEachBackend(t, func(t *testing.T, fs Backend) {
		ref := newFlatFS()
		for _, step := range steps {
			for _, p := range probes {
				fs.FileStats(p) // fill every memo the step must drop
			}
			before := fs.FileStats("tmp")
			w := step.op(ref)
			if g := underReaders(fs, probes, step.op); g != w {
				t.Fatalf("%s: %s, reference %s", step.name, g, w)
			}
			for _, p := range probes {
				if got, want := fs.FileStats(p), ref.FileStats(p); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: FileStats(%q) = %v, want %v", step.name, p, got, want)
				}
			}
			// A change elsewhere leaves tmp's memo where it was.
			if after := fs.FileStats("tmp"); len(before) > 0 && !step.tmp && &after[0] != &before[0] {
				t.Errorf("%s: tmp's inventory rebuilt with tmp unchanged", step.name)
			}
			if a, b := fs.FileStats("in"), fs.FileStats("in"); len(a) > 0 && &a[0] != &b[0] {
				t.Errorf("%s: two listings of an unchanged directory are two slices", step.name)
			}
		}
	})
}
