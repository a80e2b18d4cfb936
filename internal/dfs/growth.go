package dfs

// Append detection. ReStore's incremental-maintenance path needs to
// distinguish "this dataset was rewritten" (stored results over it are
// garbage) from "this dataset merely grew" (stored results cover a
// prefix of it and can be delta-refreshed). The primitive is a
// Snapshot of the dataset's file inventory taken when a result is
// materialized; a later Classify compares the live inventory against
// it.
//
// Both built-in backends write part files whole and never append to a
// committed file, so "same name, same size" identifies an untouched
// part: a rewrite of a part file replaces its bytes in one commit, and
// any size change is visible in the inventory. Name+size equality is
// therefore the byte-identical-prefix proxy this package promises; a
// backend that mutated committed files in place would need content
// hashes instead.

// FileStat is one file's path and size in a dataset inventory.
type FileStat struct {
	Path string
	Size int64
}

// Snapshot is a dataset's file inventory at a known version: the base
// observation append detection compares against.
type Snapshot struct {
	Version int64
	Bytes   int64
	Files   []FileStat
}

// TakeSnapshot captures the inventory of the dataset at path. The
// version is read before and after listing the files; on a torn
// observation (a concurrent writer slipped in between) it retries, so
// the returned snapshot is always internally consistent.
func TakeSnapshot(fs Backend, path string) Snapshot {
	for {
		v0 := fs.Version(path)
		files := fs.FileStats(path)
		if fs.Version(path) != v0 {
			continue
		}
		var total int64
		for _, f := range files {
			total += f.Size
		}
		return Snapshot{Version: v0, Bytes: total, Files: files}
	}
}

// GrowthKind classifies how a dataset changed relative to a snapshot.
type GrowthKind int

const (
	// GrowthNone: the version has not moved; the dataset is unchanged.
	GrowthNone GrowthKind = iota
	// GrowthAppend: the version moved, every snapshot file is still
	// present at its recorded size, and at least one new file appeared
	// — the dataset grew by exactly the new files.
	GrowthAppend
	// GrowthRewrite: anything else — a snapshot file vanished, changed
	// size, or the version moved with no visible change (an in-place
	// rewrite to the same sizes, or a delete-and-restore); stored
	// results over the snapshot cannot be trusted.
	GrowthRewrite
)

// Growth is the result of classifying a dataset against a snapshot.
type Growth struct {
	Kind GrowthKind
	// NewFiles and NewBytes describe the appended slice (Kind ==
	// GrowthAppend only), sorted by path.
	NewFiles []FileStat
	NewBytes int64
	// Version is the dataset version the classification observed.
	Version int64
}

// NewPaths returns the appended file paths.
func (g Growth) NewPaths() []string {
	out := make([]string, len(g.NewFiles))
	for i, f := range g.NewFiles {
		out[i] = f.Path
	}
	return out
}

// Grown returns the snapshot describing the grown dataset: the base
// inventory plus the appended files, at the classified version. A
// refresh that consumed exactly g's new files records this as its new
// base — not a fresh observation, which could already include appends
// the refresh never read. Both lists are sorted by path, so the result
// is their merge.
func (g Growth) Grown(base Snapshot) Snapshot {
	files := make([]FileStat, 0, len(base.Files)+len(g.NewFiles))
	old, added := base.Files, g.NewFiles
	for len(old) > 0 && len(added) > 0 {
		if added[0].Path < old[0].Path {
			files, added = append(files, added[0]), added[1:]
		} else {
			files, old = append(files, old[0]), old[1:]
		}
	}
	files = append(append(files, old...), added...)
	return Snapshot{Version: g.Version, Bytes: base.Bytes + g.NewBytes, Files: files}
}

// Classify compares the live inventory of the dataset at path against
// base. Like TakeSnapshot it retries torn observations, so the
// returned classification describes one consistent version.
func Classify(fs Backend, path string, base Snapshot) Growth {
	for {
		v := fs.Version(path)
		if v == base.Version {
			return Growth{Kind: GrowthNone, Version: v}
		}
		files := fs.FileStats(path)
		if fs.Version(path) != v {
			continue
		}
		return classify(base, files, v)
	}
}

// classify compares the live inventory against base in one merge-walk
// of the two lists, both sorted by path as FileStats and Grown return
// them.
func classify(base Snapshot, live []FileStat, v int64) Growth {
	rewrite := Growth{Kind: GrowthRewrite, Version: v}
	g := Growth{Kind: GrowthAppend, Version: v}
	old := base.Files
	for _, f := range live {
		switch {
		case len(old) > 0 && old[0].Path == f.Path:
			if old[0].Size != f.Size {
				return rewrite
			}
			old = old[1:]
		case len(old) > 0 && old[0].Path < f.Path:
			return rewrite // a base file vanished
		default:
			g.NewFiles = append(g.NewFiles, f)
			g.NewBytes += f.Size
		}
	}
	if len(old) > 0 || len(g.NewFiles) == 0 {
		// A base file vanished past the last live one, or the version
		// moved with no inventory change: a same-size rewrite or a
		// delete-and-restore. Not provably append-only.
		return rewrite
	}
	return g
}
