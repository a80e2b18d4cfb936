package core

import (
	"repro/internal/dfs"
	"repro/internal/mapreduce"
)

// newTestStorage returns a storage manager over repo that reclaims
// datasets through a default engine on fs, as a System's does.
func newTestStorage(repo *Repository, fs dfs.Backend, cfg StorageConfig) *StorageManager {
	return NewStorageManager(repo, mapreduce.New(fs, mapreduce.Config{}), cfg)
}
