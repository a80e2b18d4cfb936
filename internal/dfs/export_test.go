package dfs

import "testing"

// ForEachBackend exposes forEachBackend to the external dfs_test
// package, whose tests import dfstest (which imports dfs).
func ForEachBackend(t *testing.T, fn func(t *testing.T, fs Backend)) {
	forEachBackend(t, fn)
}
