package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/dfs/dfstest"
	"repro/internal/obs"
)

// durableEntry builds one insertable entry from a corpus script, with a
// real stored output so it validates.
func durableEntry(t testing.TB, fs dfs.Backend, src string, i int) *Entry {
	t.Helper()
	sig := firstJobSig(t, src)
	out := NamespacePath("", "restore", "q0", fmt.Sprintf("d%d", i))
	if err := fs.WriteFile(out+"/part-00000", []byte("x\t1\t2\n")); err != nil {
		t.Fatal(err)
	}
	vs := map[string]int64{}
	for _, p := range sig.loadPaths() {
		vs[p] = fs.Version(p)
	}
	return &Entry{
		Plan:          sig,
		OutputPath:    out,
		Stats:         EntryStats{InputSimBytes: int64(100 + 10*i), OutputSimBytes: int64(10 + i)},
		InputVersions: vs,
		StoredAt:      time.Duration(i) * time.Second,
	}
}

// entryKey flattens everything Probe answers depend on (and the usage
// stats persistence must carry) for equality checks.
func entryKey(e *Entry) string {
	return fmt.Sprintf("%s|%s|%s|%+v|%v|%d|%v|%v|%d|%d",
		e.ID, e.fingerprint(), e.OutputPath, e.Stats, e.WholeJob,
		len(e.InputVersions), e.StoredAt, e.LastReused, e.TimesReused, e.OutputVersion)
}

// repoState renders the whole repository in scan order.
func repoState(r *Repository) string {
	var b strings.Builder
	for _, e := range allEntries(r) {
		b.WriteString(entryKey(e))
		b.WriteByte('\n')
	}
	return b.String()
}

// probeState renders the candidate lists the repository nominates for
// each probe job — the externally visible matcher behaviour.
func probeState(t *testing.T, r *Repository) string {
	t.Helper()
	var b strings.Builder
	for _, src := range indexProbes {
		sig := firstJobSig(t, src)
		r.Probe(sig, func(e *Entry) bool {
			b.WriteString(e.ID + "|" + e.fingerprint() + ";")
			return true
		}, nil)
		b.WriteByte('\n')
	}
	return b.String()
}

func openDurable(t testing.TB, fs dfs.Backend, root string) (*DurableLog, *Repository) {
	t.Helper()
	dl, repo, err := OpenDurableLog(fs, DurableConfig{Root: root, Writer: AllocWriter(fs, root), CompactEvery: -1})
	if err != nil {
		t.Fatalf("OpenDurableLog: %v", err)
	}
	return dl, repo
}

// TestDurablePrefixDurability is the append-durability contract: after
// every single acknowledged mutation — inserts, a replacement, a
// remove, an eviction, a vacuum — a cold recovery over the same DFS
// rebuilds exactly the acknowledged state, and nominates byte-identical
// Probe candidates, without decoding one stored plan.
func TestDurablePrefixDurability(t *testing.T) {
	fs := dfstest.New(t)
	_, repo := openDurable(t, fs, "sys/repo")

	check := func(step string) {
		t.Helper()
		before := PlanDecodes()
		_, recovered := openDurable(t, fs, "sys/repo")
		if d := PlanDecodes() - before; d != 0 {
			t.Fatalf("%s: recovery decoded %d stored plans, want 0", step, d)
		}
		if got, want := repoState(recovered), repoState(repo); got != want {
			t.Fatalf("%s: recovered state diverged\n--- recovered ---\n%s--- live ---\n%s", step, got, want)
		}
		if got, want := probeState(t, recovered), probeState(t, repo); got != want {
			t.Fatalf("%s: recovered Probe answers diverged\n--- recovered ---\n%s--- live ---\n%s", step, got, want)
		}
	}

	var inserted []*Entry
	for i, src := range indexCorpus {
		inserted = append(inserted, repo.Insert(durableEntry(t, fs, src, i)))
		check(fmt.Sprintf("insert %d", i))
	}

	// Replacement: same fingerprint, refreshed stats and output.
	repl := durableEntry(t, fs, indexCorpus[0], 100)
	repl.Stats.InputSimBytes = 999
	repo.Insert(repl)
	check("replacement")

	repo.NoteReuse(inserted[2], 5*time.Second)
	// NoteReuse is deliberately unjournaled (usage counters are
	// advisory); journal the refreshed state via a no-op replacement so
	// the next check sees it.
	repo.Insert(durableEntry(t, fs, indexCorpus[2], 2))
	check("reuse+replace")

	repo.EvictUnpinned([]string{inserted[3].ID}, nil)
	check("remove")

	if removed, _ := repo.EvictUnpinned([]string{inserted[4].ID}, nil); len(removed) != 1 {
		t.Fatalf("evict removed %d entries", len(removed))
	}
	check("evict")

	// Vacuum: invalidate one entry's output, sweep it.
	if err := fs.Delete(inserted[5].OutputPath); err != nil {
		t.Fatal(err)
	}
	if removed, _ := repo.Vacuum(fs, 0, 0, nil, nil); len(removed) != 1 {
		t.Fatalf("vacuum removed %d entries, want 1", len(removed))
	}
	check("vacuum")
}

// TestDurableCompactionCrashMatrix crashes the process after every DFS
// mutation of one more Insert and one Compact — the record append, the
// temporary manifest write, the rename that publishes it, each trimmed
// record — and requires recovery to rebuild exactly the acknowledged
// repository each time, without decoding a stored plan. A counted
// subtest is named after the first mutation its crash loses; two more
// crash between the operations: right after the append, with no
// compaction (append-done), and as Compact begins (compact-begin).
func TestDurableCompactionCrashMatrix(t *testing.T) {
	setup := func(t *testing.T) (*dfstest.Faulty, *DurableLog, *Repository, [2]*Entry) {
		fs := &dfstest.Faulty{Backend: dfstest.New(t)}
		dl, repo := openDurable(t, fs, "sys/repo")
		for i, src := range indexCorpus {
			repo.Insert(durableEntry(t, fs, src, i))
		}
		repo.EvictUnpinned([]string{allEntries(repo)[1].ID}, nil)
		extra := [2]*Entry{durableEntry(t, fs, indexCorpus[1], 50), durableEntry(t, fs, indexCorpus[2], 60)}
		return fs, dl, repo, extra
	}

	// Count the mutations on an unfaulted run.
	fs, dl, repo, extra := setup(t)
	m0 := fs.Mutations()
	repo.Insert(extra[0])
	if d := fs.Mutations() - m0; d != 1 {
		t.Fatalf("an Insert made %d DFS mutations, want its one record write", d)
	}
	if err := dl.Compact(); err != nil {
		t.Fatal(err)
	}
	n := fs.Mutations() - m0
	t.Logf("one append and one compaction: N = %d mutations", n)

	// run crashes k mutations into the Insert and the Compact, or, for
	// k < 0, right after the Insert; it compacts only if compact, then
	// checks that recovery rebuilds the acknowledged repository.
	run := func(name string, k int, compact bool) {
		t.Run(name, func(t *testing.T) {
			fs, dl, repo, extra := setup(t)
			want, wantProbe := repoState(repo), probeState(t, repo)
			if k >= 0 {
				fs.CrashAfter(k)
			}
			repo.Insert(extra[0])
			if k == 0 {
				// The record write is lost: recovery must not see the
				// insert, and the drop must be counted.
				if got := dl.Stats().DroppedAppends; got != 1 {
					t.Fatalf("DroppedAppends = %d after a dropped append, want 1", got)
				}
			} else {
				want, wantProbe = repoState(repo), probeState(t, repo)
			}
			if k < 0 {
				// Crash between the operations: the append is durable
				// and nothing after it is.
				fs.CrashAfter(0)
			}
			if compact {
				_ = dl.Compact() // a crashed compaction may or may not report it
			}
			// A dead process persists nothing more.
			appends := dl.Stats().Appends
			repo.Insert(extra[1])
			if dl.Stats().Appends != appends {
				t.Fatal("a crashed process still appended")
			}

			before := PlanDecodes()
			_, recovered := openDurable(t, fs.Backend, "sys/repo")
			if d := PlanDecodes() - before; d != 0 {
				t.Fatalf("recovery decoded %d plans, want 0", d)
			}
			if got := repoState(recovered); got != want {
				t.Fatalf("recovered state diverged after a crash at %s\n--- recovered ---\n%s--- want ---\n%s", name, got, want)
			}
			if got := probeState(t, recovered); got != wantProbe {
				t.Fatalf("recovered Probe diverged after a crash at %s", name)
			}
		})
	}

	for k := 0; k <= n; k++ {
		name := "append"
		if k > 0 {
			name = compactBoundary(k-1, n-1)
		}
		run(name, k, true)
	}
	run("append-done", -1, false)
	run("compact-begin", -1, true)
}

// compactBoundary names the crash k mutations into a Compact of n by
// the mutation it loses: the temporary manifest write, the rename that
// publishes the manifest, then each trimmed log record in turn.
func compactBoundary(k, n int) string {
	switch {
	case k == n:
		return "compact-done"
	case k == 0:
		return "compact-manifest"
	case k == 1:
		return "compact-rename"
	case k == 2:
		return "compact-trim"
	}
	return fmt.Sprintf("compact-trim-%d", k-1)
}

// TestDurableCompactionFoldsLog: a clean compaction folds everything
// into the manifest, trims the log, and a recovery from manifest alone
// is identical; appends after the fold land in the fresh log tail.
func TestDurableCompactionFoldsLog(t *testing.T) {
	fs := dfstest.New(t)
	dl, repo := openDurable(t, fs, "sys/repo")
	for i, src := range indexCorpus {
		repo.Insert(durableEntry(t, fs, src, i))
	}
	if err := dl.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if n := dl.Stats().LogRecords; n != 0 {
		t.Fatalf("log holds %d records after compaction, want 0", n)
	}
	want := repoState(repo)
	_, recovered := openDurable(t, fs, "sys/repo")
	if got := repoState(recovered); got != want {
		t.Fatalf("manifest-only recovery diverged\n%s\nvs\n%s", got, want)
	}

	// Post-fold appends replay over the manifest.
	repo.Insert(durableEntry(t, fs, indexCorpus[0], 70))
	es := allEntries(repo)
	repo.EvictUnpinned([]string{es[len(es)-1].ID}, nil)
	want = repoState(repo)
	_, recovered = openDurable(t, fs, "sys/repo")
	if got := repoState(recovered); got != want {
		t.Fatalf("manifest+tail recovery diverged\n%s\nvs\n%s", got, want)
	}
}

// TestDurableTwoWritersConverge: two repositories journaling into one
// log see each other's inserts, replacements and removes after a
// refresh, and a writer that fell behind a peer's compaction resyncs
// from the manifest.
func TestDurableTwoWritersConverge(t *testing.T) {
	fs := dfstest.New(t)
	dlA, repoA := openDurable(t, fs, "sys/repo")
	dlB, repoB := openDurable(t, fs, "sys/repo")
	if dlA.writer == dlB.writer {
		t.Fatalf("writer IDs collide: %s", dlA.writer)
	}

	// Live peers converge on content; scan order is writer-local best
	// effort under concurrent appends (each peer applied the same
	// records, but interleaved with its own local inserts), so the
	// content comparison sorts. A fresh recovery from the shared log is
	// fully deterministic and is compared exactly below.
	sortedState := func(r *Repository) string {
		lines := strings.Split(strings.TrimSuffix(repoState(r), "\n"), "\n")
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}

	repoA.Insert(durableEntry(t, fs, indexCorpus[0], 0))
	repoB.Insert(durableEntry(t, fs, indexCorpus[1], 1))
	repoA.Insert(durableEntry(t, fs, indexCorpus[2], 2))
	dlA.Refresh()
	dlB.Refresh()
	if gotA, gotB := sortedState(repoA), sortedState(repoB); gotA != gotB {
		t.Fatalf("repos diverged after refresh\n--- A ---\n%s\n--- B ---\n%s", gotA, gotB)
	}
	if repoA.Len() != 3 {
		t.Fatalf("converged repo holds %d entries, want 3", repoA.Len())
	}
	// Two cold recoveries over the same log agree exactly, order
	// included.
	_, rec1 := openDurable(t, fs, "sys/repo")
	_, rec2 := openDurable(t, fs, "sys/repo")
	if repoState(rec1) != repoState(rec2) {
		t.Fatalf("two recoveries of one log diverged")
	}

	// A removes one of B's entries; B refreshes and agrees.
	victim := allEntries(repoA)[0]
	repoA.EvictUnpinned([]string{victim.ID}, nil)
	dlB.Refresh()
	if sortedState(repoA) != sortedState(repoB) {
		t.Fatalf("repos diverged after cross-writer remove")
	}

	// A floods and compacts (trimming the log); B — behind the fold —
	// must resync from the manifest.
	for i, src := range indexCorpus[3:] {
		repoA.Insert(durableEntry(t, fs, src, 10+i))
	}
	if err := dlA.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	dlB.Refresh()
	if dlB.Stats().Resyncs == 0 {
		t.Fatalf("B never resynced from the manifest")
	}
	if repoState(repoA) != repoState(repoB) {
		t.Fatalf("repos diverged after compaction resync\n--- A ---\n%s--- B ---\n%s", repoState(repoA), repoState(repoB))
	}
}

// TestDurableLazyPlanDecode: recovered entries decode their plan only
// when a containment traversal touches them — Probe alone never does —
// and the decoded plan matches exactly like the original.
func TestDurableLazyPlanDecode(t *testing.T) {
	fs := dfstest.New(t)
	_, repo := openDurable(t, fs, "sys/repo")
	for i, src := range indexCorpus {
		repo.Insert(durableEntry(t, fs, src, i))
	}
	liveRW := &Rewriter{Repo: repo, FS: fs}
	wf := compileJobs(t, q2, "tmp/lz")
	liveJob := cloneJob(wf.Jobs[0])
	liveEvents := liveRW.RewriteJob(liveJob, true, obs.NoSpan)
	if len(liveEvents) == 0 {
		t.Fatal("live repository matched nothing; test premise broken")
	}

	before := PlanDecodes()
	_, recovered := openDurable(t, fs, "sys/repo")
	sig := firstJobSig(t, q2)
	n := 0
	recovered.Probe(sig, func(e *Entry) bool { n++; return true }, nil)
	if n == 0 {
		t.Fatal("recovered index nominated no candidates")
	}
	if d := PlanDecodes() - before; d != 0 {
		t.Fatalf("recovery+Probe decoded %d plans, want 0", d)
	}

	recRW := &Rewriter{Repo: recovered, FS: fs}
	recJob := cloneJob(wf.Jobs[0])
	recEvents := recRW.RewriteJob(recJob, true, obs.NoSpan)
	if PlanDecodes() == before {
		t.Fatal("a full traversal on recovered entries decoded nothing")
	}
	if len(recEvents) != len(liveEvents) {
		t.Fatalf("recovered rewriter applied %d events, live %d", len(recEvents), len(liveEvents))
	}
	for i := range recEvents {
		if eventKey(recEvents[i]) != eventKey(liveEvents[i]) {
			t.Fatalf("event %d: recovered %s, live %s", i, eventKey(recEvents[i]), eventKey(liveEvents[i]))
		}
	}
	if recJob.Plan.String() != liveJob.Plan.String() {
		t.Fatalf("rewritten plans diverge:\n%s\nvs\n%s", recJob.Plan, liveJob.Plan)
	}
}

// TestDurableLaggingWriterSkipsTrimmedSlots: a writer that fell behind
// a peer's compaction must not append into trimmed sequence slots —
// records there sit below the fold horizon where no replay ever looks,
// silently losing the acknowledged mutation. The lagging writer has to
// jump past the manifest's FoldedThrough and its record must reach
// every peer and every recovery.
func TestDurableLaggingWriterSkipsTrimmedSlots(t *testing.T) {
	fs := dfstest.New(t)
	dlA, repoA := openDurable(t, fs, "sys/repo")
	_, repoB := openDurable(t, fs, "sys/repo")

	// A fills the log and folds+trims it; B has applied nothing.
	for i, src := range indexCorpus[:4] {
		repoA.Insert(durableEntry(t, fs, src, i))
	}
	if err := dlA.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := dlA.Stats().LogRecords; n != 0 {
		t.Fatalf("log holds %d records after fold; premise broken", n)
	}

	// B — still at applied 0 — acknowledges an insert. Its record must
	// land above the fold horizon.
	e := repoB.Insert(durableEntry(t, fs, indexCorpus[5], 50))
	if e.logSeq <= dlA.Stats().AppliedSeq {
		t.Fatalf("lagging writer appended at seq %d, at or below the fold horizon %d", e.logSeq, dlA.Stats().AppliedSeq)
	}

	// A sees it on refresh, and a cold recovery sees everything.
	dlA.Refresh()
	if got := repoA.lookupFP(e.fingerprint()); got == nil {
		t.Fatal("peer never observed the lagging writer's insert")
	}
	_, recovered := openDurable(t, fs, "sys/repo")
	if recovered.Len() != 5 {
		t.Fatalf("recovery found %d entries, want 5", recovered.Len())
	}
	if recovered.lookupFP(e.fingerprint()) == nil {
		t.Fatal("recovery lost the lagging writer's insert")
	}
}

// TestDurableRemoveKeepsNewerVersion: a remove record removes the
// version its writer saw. A peer that removes its copy of an entry
// another writer has since replaced leaves the replacement alive, in
// that writer's repository and in a cold recovery.
func TestDurableRemoveKeepsNewerVersion(t *testing.T) {
	fs := dfstest.New(t)
	dlA, repoA := openDurable(t, fs, "sys/repo")
	dlB, repoB := openDurable(t, fs, "sys/repo")
	e := repoA.Insert(durableEntry(t, fs, indexCorpus[0], 0))
	dlB.Refresh()
	ne := repoA.Insert(durableEntry(t, fs, indexCorpus[0], 1))
	if ne.ID != e.ID || ne.OutputPath == e.OutputPath {
		t.Fatalf("replacement %s at %s; test premise broken", ne.ID, ne.OutputPath)
	}
	if removed, _ := repoB.EvictUnpinned([]string{e.ID}, nil); len(removed) == 0 {
		t.Fatal("the peer never folded the entry; test premise broken")
	}
	dlA.Refresh()
	_, recovered := openDurable(t, fs, "sys/repo")
	for name, repo := range map[string]*Repository{"writer": repoA, "recovery": recovered} {
		if got := repo.lookupFP(e.fingerprint()); got == nil || got.OutputPath != ne.OutputPath {
			t.Fatalf("%s: a peer's remove of the old version took the replacement at %s with it", name, ne.OutputPath)
		}
	}
}

// TestRefreshSkipsOwnRecords: a log's refresh passes over the record
// slots it appended itself without reading them — its repository
// already holds those mutations — and still applies every record a
// peer sharing the DFS appended.
func TestRefreshSkipsOwnRecords(t *testing.T) {
	fs := &countingFS{Backend: dfstest.New(t), prefix: "sys/repo/log/"}
	dlA, repoA := openDurable(t, fs, "sys/repo")
	_, repoB := openDurable(t, fs, "sys/repo")
	for i, src := range indexCorpus[:3] {
		repoA.Insert(durableEntry(t, fs, src, i))
	}
	fs.reads = 0
	// The one read is of the empty slot after A's three records.
	if n := dlA.Refresh(); n != 0 || fs.reads != 1 {
		t.Fatalf("refresh over its own 3 records applied %d and read %d files, want 0 and 1", n, fs.reads)
	}
	var peer []*Entry
	for i, src := range indexCorpus[3:5] {
		peer = append(peer, repoB.Insert(durableEntry(t, fs, src, 3+i)))
	}
	fs.reads = 0
	if n := dlA.Refresh(); n != 2 || fs.reads != 3 {
		t.Fatalf("refresh over 2 peer records applied %d and read %d files, want 2 and 3", n, fs.reads)
	}
	for _, e := range peer {
		if got := repoA.lookupFP(e.fingerprint()); got == nil || got.ID != e.ID {
			t.Fatalf("peer entry %s not applied: %v", e.ID, got)
		}
	}
	if repoA.Len() != 5 {
		t.Fatalf("repository holds %d entries, want 5", repoA.Len())
	}
}
