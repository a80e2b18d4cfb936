package dfs

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// TestClassifyGrowth drives the snapshot/classify contract on both
// backends: unchanged datasets report GrowthNone, strictly extended
// inventories report GrowthAppend with exactly the new files, and any
// disturbance of a snapshot file — size change, removal, or a
// same-inventory version bump — degrades to GrowthRewrite.
func TestClassifyGrowth(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		for i := 0; i < 3; i++ {
			if err := fs.WriteFile(fmt.Sprintf("logs/part-%05d", i), []byte("0123456789")); err != nil {
				t.Fatal(err)
			}
		}
		base := TakeSnapshot(fs, "logs")
		if base.Version == 0 || base.Bytes != 30 || len(base.Files) != 3 {
			t.Fatalf("base snapshot: %+v", base)
		}

		if g := Classify(fs, "logs", base); g.Kind != GrowthNone {
			t.Fatalf("unchanged dataset classified %v", g.Kind)
		}

		// Append two parts: the growth is exactly those files.
		if err := fs.WriteFile("logs/part-00003", []byte("abcdef")); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("logs/part-00004", []byte("gh")); err != nil {
			t.Fatal(err)
		}
		g := Classify(fs, "logs", base)
		if g.Kind != GrowthAppend {
			t.Fatalf("append classified %v", g.Kind)
		}
		if g.NewBytes != 8 || len(g.NewFiles) != 2 {
			t.Fatalf("append slice: %+v", g)
		}
		if p := g.NewPaths(); p[0] != "logs/part-00003" || p[1] != "logs/part-00004" {
			t.Fatalf("NewPaths: %v", p)
		}
		if g.Version != fs.Version("logs") {
			t.Fatalf("growth version %d, live %d", g.Version, fs.Version("logs"))
		}

		// Grown folds the consumed slice into the base: classifying the
		// same live state against it sees no further growth.
		grown := g.Grown(base)
		if grown.Bytes != 38 || len(grown.Files) != 5 || grown.Version != g.Version {
			t.Fatalf("grown snapshot: %+v", grown)
		}
		if g2 := Classify(fs, "logs", grown); g2.Kind != GrowthNone {
			t.Fatalf("grown base against unchanged live state classified %v", g2.Kind)
		}

		// A base file changing size is a rewrite.
		if err := fs.WriteFile("logs/part-00000", []byte("longer than before")); err != nil {
			t.Fatal(err)
		}
		if g := Classify(fs, "logs", grown); g.Kind != GrowthRewrite {
			t.Fatalf("resized base file classified %v", g.Kind)
		}

		// A base file vanishing is a rewrite even if new files appeared.
		base2 := TakeSnapshot(fs, "logs")
		if err := fs.Delete("logs/part-00001"); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("logs/part-00009", []byte("xy")); err != nil {
			t.Fatal(err)
		}
		if g := Classify(fs, "logs", base2); g.Kind != GrowthRewrite {
			t.Fatalf("removed base file classified %v", g.Kind)
		}
	})
}

// TestClassifySameSizeRewrite is the corner the name+size proxy must
// refuse to bless: the version moved but the inventory is identical —
// an in-place rewrite to the same sizes is indistinguishable from it,
// so the classification must be GrowthRewrite, never GrowthNone.
func TestClassifySameSizeRewrite(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		if err := fs.WriteFile("ds/part-00000", []byte("aaaa")); err != nil {
			t.Fatal(err)
		}
		base := TakeSnapshot(fs, "ds")
		if err := fs.WriteFile("ds/part-00000", []byte("bbbb")); err != nil {
			t.Fatal(err)
		}
		g := Classify(fs, "ds", base)
		if g.Kind != GrowthRewrite {
			t.Fatalf("same-size in-place rewrite classified %v, want GrowthRewrite", g.Kind)
		}
	})
}

// classifyRef and grownRef are classify and Growth.Grown as they were
// before both became merge-walks: a map of the live sizes, and a sort
// of the concatenation. They are kept as the oracles of
// TestClassifyAgainstMaps and FuzzClassify.
func classifyRef(base Snapshot, live []FileStat, v int64) Growth {
	sizes := make(map[string]int64, len(live))
	for _, f := range live {
		sizes[f.Path] = f.Size
	}
	for _, f := range base.Files {
		sz, ok := sizes[f.Path]
		if !ok || sz != f.Size {
			return Growth{Kind: GrowthRewrite, Version: v}
		}
		delete(sizes, f.Path)
	}
	if len(sizes) == 0 {
		return Growth{Kind: GrowthRewrite, Version: v}
	}
	g := Growth{Kind: GrowthAppend, Version: v}
	for _, f := range live {
		if _, isNew := sizes[f.Path]; isNew {
			g.NewFiles = append(g.NewFiles, f)
			g.NewBytes += f.Size
		}
	}
	return g
}

func grownRef(g Growth, base Snapshot) Snapshot {
	files := make([]FileStat, 0, len(base.Files)+len(g.NewFiles))
	files = append(files, base.Files...)
	files = append(files, g.NewFiles...)
	sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
	return Snapshot{Version: g.Version, Bytes: base.Bytes + g.NewBytes, Files: files}
}

// inventoryNames are the paths the classify oracles draw from, sorted.
// Numbered parts whose order looks wrong ("part-10" before "part-9"),
// a name sorting between a directory's own name and its files ("a.b"
// between "a" and "a/b"), and bytes above ASCII.
var inventoryNames = func() []string {
	names := []string{"d/a", "d/a.b", "d/a/b", "d/a-b", "d/part-00009", "d/part-00010",
		"d/part-10", "d/part-9", "d/Z", "d/é", "d/b/part-00000", "d/b/c"}
	sort.Strings(names)
	return names
}()

// inventories builds a base and a live inventory over inventoryNames:
// each name's byte says whether it is in base (bit 0), in live (bit 1)
// and, when in both, whether it changed size (bit 2); its size is the
// byte's upper bits.
func inventories(spec []byte) (base Snapshot, live []FileStat) {
	for i, name := range inventoryNames {
		if i >= len(spec) {
			break
		}
		b := spec[i]
		size := int64(b >> 3)
		if b&1 != 0 {
			base.Files = append(base.Files, FileStat{Path: name, Size: size})
			base.Bytes += size
		}
		if b&2 != 0 {
			if b&1 != 0 && b&4 != 0 {
				size++
			}
			live = append(live, FileStat{Path: name, Size: size})
		}
	}
	return base, live
}

// checkClassify holds classify and, on an append, Grown to their
// oracles for one pair of inventories.
func checkClassify(t *testing.T, base Snapshot, live []FileStat) Growth {
	t.Helper()
	got, want := classify(base, live, 7), classifyRef(base, live, 7)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("classify(%v, %v) = %+v, want %+v", base.Files, live, got, want)
	}
	if got.Kind == GrowthAppend {
		if g, w := got.Grown(base), grownRef(got, base); !reflect.DeepEqual(g, w) {
			t.Fatalf("Grown(%v) with %v = %+v, want %+v", base.Files, got.NewFiles, g, w)
		}
	}
	return got
}

// TestClassifyAgainstMaps holds the merge-walk classify and Grown to
// the map and sort implementations they replaced, case by case.
func TestClassifyAgainstMaps(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec []byte
		want GrowthKind
	}{
		{"both empty", nil, GrowthRewrite},
		{"empty base, files added", []byte{2 | 8, 0, 2 | 16}, GrowthAppend},
		{"files gone, none left", []byte{1 | 8, 1 | 16}, GrowthRewrite},
		{"same inventory", []byte{3 | 8, 3 | 16, 0, 3}, GrowthRewrite},
		{"same names, one resized", []byte{3 | 8, 3 | 4 | 16}, GrowthRewrite},
		{"added after every base file", []byte{3 | 8, 3 | 16, 2 | 24}, GrowthAppend},
		{"added before and between base files", []byte{2 | 8, 3 | 16, 2, 3 | 24, 2 | 8}, GrowthAppend},
		{"one removed, one added", []byte{3 | 8, 1 | 16, 2 | 24}, GrowthRewrite},
		{"last base file removed", []byte{2 | 8, 3 | 16, 0, 0, 0, 1 | 8}, GrowthRewrite},
		{"resized and added", []byte{3 | 4 | 8, 2 | 16}, GrowthRewrite},
		{"every name, out-of-order looking", []byte{3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2}, GrowthAppend},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, live := inventories(tc.spec)
			if g := checkClassify(t, base, live); g.Kind != tc.want {
				t.Fatalf("classified %v, want %v", g.Kind, tc.want)
			}
		})
	}
}

// FuzzClassify holds classify and Grown to their oracles over arbitrary
// pairs of inventories drawn from inventoryNames.
//
//	go test ./internal/dfs -run '^$' -fuzz FuzzClassify -fuzztime 30s
func FuzzClassify(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 2})
	f.Add([]byte{3 | 4, 2, 1})
	f.Add([]byte{2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3})
	f.Fuzz(func(t *testing.T, spec []byte) {
		base, live := inventories(spec)
		checkClassify(t, base, live)
	})
}
