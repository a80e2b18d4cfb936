package restore

import "repro/internal/core"

// RepositoryEntries collects r's entries in scan order (Repository.Scan),
// for the tests of this package and of restore_test.
func RepositoryEntries(r *core.Repository) []*core.Entry {
	var out []*core.Entry
	r.Scan(func(e *core.Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}
