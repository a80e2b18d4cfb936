package core

import (
	"os"
	"testing"

	"repro/internal/dfs"
	"repro/internal/mapreduce"
)

// newTestFS returns the DFS backend the durability, lease and
// crash-injection suites run against: the in-memory FS by default, the
// on-disk backend in a per-test directory when RESTORE_TEST_BACKEND is
// "disk". The suites themselves are backend-agnostic — CI runs them
// once per backend.
func newTestFS(t testing.TB) dfs.Backend {
	if os.Getenv("RESTORE_TEST_BACKEND") == "disk" {
		d, err := dfs.OpenDisk(t.TempDir())
		if err != nil {
			t.Fatalf("OpenDisk: %v", err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	return dfs.New()
}

// newTestStorage returns a storage manager over repo that reclaims
// datasets through a default engine on fs, as a System's does.
func newTestStorage(repo *Repository, fs dfs.Backend, cfg StorageConfig) *StorageManager {
	return NewStorageManager(repo, mapreduce.New(fs, mapreduce.Config{}), cfg)
}
