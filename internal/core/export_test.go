package core

// allEntries collects the repository's entries in scan order.
func allEntries(r *Repository) []*Entry {
	var out []*Entry
	r.Scan(func(e *Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// stillHeld reports whether l's lease file is unchanged since its holder
// last wrote it: false means it expired and was taken over, or reaped.
func (lm *LeaseManager) stillHeld(l *Lease) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return lm.fs.Version(l.path) == l.version
}
