package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/tuple"
)

func entryFor(t *testing.T, src string, id string, stats EntryStats) *Entry {
	t.Helper()
	sig := firstJobSig(t, src)
	return &Entry{ID: id, Plan: sig, OutputPath: "stored/" + id, Stats: stats}
}

func TestInsertOrdersBySubsumption(t *testing.T) {
	repo := NewRepository()
	small := entryFor(t, `
A = load 'pv' as (u, r);
B = foreach A generate u;
store B into 'o';
`, "small", EntryStats{InputSimBytes: 100, OutputSimBytes: 50})
	big := entryFor(t, `
A = load 'pv' as (u, r);
B = foreach A generate u;
C = distinct B;
store C into 'o2';
`, "big", EntryStats{InputSimBytes: 100, OutputSimBytes: 90})

	// Insert the small one first; the subsuming big plan must still be
	// scanned first (Rule 1 beats Rule 2's ratio, which favors small).
	repo.Insert(small)
	repo.Insert(big)
	if repo.Entries()[0].ID != "big" {
		t.Errorf("scan order = [%s, %s], want big first",
			repo.Entries()[0].ID, repo.Entries()[1].ID)
	}
}

func TestInsertOrdersByRatioThenTime(t *testing.T) {
	repo := NewRepository()
	mk := func(id, path string, in, out int64, jt time.Duration) *Entry {
		return entryFor(t, fmt.Sprintf(`
A = load '%s' as (a, b);
B = foreach A generate a;
store B into 'o';
`, path), id, EntryStats{InputSimBytes: in, OutputSimBytes: out, JobSimTime: jt})
	}
	// Incomparable plans (different datasets): higher I/O ratio first.
	lowRatio := mk("low", "d1", 100, 90, time.Hour)
	highRatio := mk("high", "d2", 100, 10, time.Minute)
	repo.Insert(lowRatio)
	repo.Insert(highRatio)
	if repo.Entries()[0].ID != "high" {
		t.Errorf("ratio ordering failed: first = %s", repo.Entries()[0].ID)
	}

	// Equal ratios: longer job time first.
	repo2 := NewRepository()
	slow := mk("slow", "d3", 100, 50, time.Hour)
	fast := mk("fast", "d4", 100, 50, time.Minute)
	repo2.Insert(fast)
	repo2.Insert(slow)
	if repo2.Entries()[0].ID != "slow" {
		t.Errorf("time ordering failed: first = %s", repo2.Entries()[0].ID)
	}
}

func TestInsertDedupsByFingerprint(t *testing.T) {
	repo := NewRepository()
	src := `
A = load 'pv' as (u, r);
B = foreach A generate u;
store B into 'o';
`
	e1 := entryFor(t, src, "", EntryStats{InputSimBytes: 10, OutputSimBytes: 5})
	e2 := entryFor(t, src, "", EntryStats{InputSimBytes: 99, OutputSimBytes: 1})
	e2.OutputPath = "stored/new"
	first := repo.Insert(e1)
	second := repo.Insert(e2)
	if repo.Len() != 1 {
		t.Fatalf("repo len = %d, want 1 (dedup)", repo.Len())
	}
	if first.ID != second.ID {
		t.Errorf("dedup changed identity: %s vs %s", first.ID, second.ID)
	}
	if second.OutputPath != "stored/new" || second.Stats.InputSimBytes != 99 {
		t.Errorf("dedup did not refresh stats/path: %+v", second)
	}
	// The replacement is a fresh value: readers holding the first
	// pointer keep their consistent snapshot.
	if first.OutputPath == "stored/new" {
		t.Errorf("replacement mutated the old entry in place")
	}
	if cur := repo.Lookup(second.Plan); cur == nil || cur.OutputPath != "stored/new" {
		t.Errorf("repository does not serve the refreshed entry: %+v", cur)
	}
}

// TestRegisteredSince: a job rewritten at a generation can tell which
// fingerprints were published after it looked — a new entry or a
// replacement of one it had already seen — and which were not.
func TestRegisteredSince(t *testing.T) {
	repo := NewRepository()
	src := `
A = load 'pv' as (u, r);
B = foreach A generate u;
store B into 'o';
`
	seen := repo.generation()
	e := repo.Insert(entryFor(t, src, "", EntryStats{InputSimBytes: 10, OutputSimBytes: 5}))
	if !repo.registeredSince(e.fp, seen) {
		t.Fatal("an entry published after the look is not reported")
	}
	if repo.registeredSince(e.fp, repo.generation()) || repo.registeredSince("no-such-fp", seen) {
		t.Fatal("registeredSince reports an entry published before the look, or a missing one")
	}
	seen = repo.generation()
	repo.Insert(entryFor(t, src, "", EntryStats{InputSimBytes: 99, OutputSimBytes: 1}))
	if !repo.registeredSince(e.fp, seen) {
		t.Fatal("a replacement published after the look is not reported")
	}
}

func TestRemoveEntry(t *testing.T) {
	repo := NewRepository()
	e := entryFor(t, `
A = load 'x' as (a);
B = foreach A generate a;
store B into 'o';
`, "", EntryStats{})
	ins := repo.Insert(e)
	if got := repo.Remove(ins.ID); got == nil || repo.Len() != 0 {
		t.Errorf("Remove failed: %v, len=%d", got, repo.Len())
	}
	if repo.Remove("nope") != nil {
		t.Errorf("removing a missing entry should return nil")
	}
	// The fingerprint index must be cleaned too.
	if repo.Lookup(e.Plan) != nil {
		t.Errorf("fingerprint survived removal")
	}
}

func TestValidChecksOutputAndVersions(t *testing.T) {
	fs := dfs.New()
	fs.WriteFile("in/part-00000", []byte("a\n"))
	fs.WriteFile("stored/e/part-00000", []byte("a\n"))
	repo := NewRepository()
	e := &Entry{
		ID:            "e",
		OutputPath:    "stored/e",
		InputVersions: map[string]int64{"in": fs.Version("in")},
	}
	if !repo.Valid(e, fs) {
		t.Fatalf("fresh entry should be valid")
	}
	// Input modified: invalid.
	fs.WriteFile("in/part-00000", []byte("b\n"))
	if repo.Valid(e, fs) {
		t.Errorf("entry with modified input should be invalid")
	}
	// Restore version match but delete the output: invalid.
	e.InputVersions["in"] = fs.Version("in")
	fs.Delete("stored/e")
	if repo.Valid(e, fs) {
		t.Errorf("entry with deleted output should be invalid")
	}
}

func TestVacuumRules(t *testing.T) {
	fs := dfs.New()
	fs.WriteFile("in/part-00000", []byte("a\n"))
	fs.WriteFile("stored/fresh/part-00000", []byte("x\n"))
	fs.WriteFile("stored/stale/part-00000", []byte("x\n"))
	repo := NewRepository()
	fresh := &Entry{ID: "fresh", OutputPath: "stored/fresh",
		InputVersions: map[string]int64{"in": fs.Version("in")},
		LastReused:    90 * time.Minute}
	stale := &Entry{ID: "stale", OutputPath: "stored/stale",
		InputVersions: map[string]int64{"in": fs.Version("in")},
		StoredAt:      0}
	repo.entries = append(repo.entries, fresh, stale)
	repo.byFP["f1"] = fresh
	repo.byFP["f2"] = stale

	removed, _ := repo.Vacuum(fs, 2*time.Hour, time.Hour, nil, nil)
	if len(removed) != 1 || removed[0].ID != "stale" {
		t.Fatalf("removed = %v", removed)
	}
	if repo.Len() != 1 || repo.Entries()[0].ID != "fresh" {
		t.Errorf("kept = %v", repo.Entries())
	}
}

func TestNoteReuse(t *testing.T) {
	repo := NewRepository()
	e := &Entry{}
	repo.NoteReuse(e, 5*time.Minute)
	repo.NoteReuse(e, 9*time.Minute)
	if e.TimesReused != 2 || e.LastReused != 9*time.Minute {
		t.Errorf("usage stats = %+v", e)
	}
}

// TestReuseEquivalenceRandomPipelines is a property test: randomly
// generated filter/project/group pipelines over random data must
// produce identical results with a warm repository (reuse on, all
// heuristics) as on a cold baseline.
func TestReuseEquivalenceRandomPipelines(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 8; trial++ {
		// Random data.
		var rows []tuple.Tuple
		nRows := 50 + r.Intn(200)
		for i := 0; i < nRows; i++ {
			rows = append(rows, tuple.Tuple{
				fmt.Sprintf("k%d", r.Intn(9)),
				int64(r.Intn(100)),
				int64(r.Intn(10)),
			})
		}
		// Random pipeline.
		var b strings.Builder
		b.WriteString("A = load 'rand' as (k, v, w);\n")
		prev := "A"
		steps := 1 + r.Intn(3)
		for s := 0; s < steps; s++ {
			cur := fmt.Sprintf("S%d", s)
			switch r.Intn(3) {
			case 0:
				fmt.Fprintf(&b, "%s = filter %s by v > %d;\n", cur, prev, r.Intn(80))
			case 1:
				fmt.Fprintf(&b, "%s = foreach %s generate k, v, w;\n", cur, prev)
			case 2:
				fmt.Fprintf(&b, "%s = distinct %s;\n", cur, prev)
			}
			prev = cur
		}
		fmt.Fprintf(&b, "G = group %s by k;\n", prev)
		fmt.Fprintf(&b, "R = foreach G generate group, COUNT(%s), SUM(%s.v);\n", prev, prev)
		b.WriteString("store R into 'rand_out';\n")
		src := b.String()

		base := newHarness(t, Options{})
		base.fs.WriteFile("rand/part-00000", []byte(encodeRows(rows)))
		want := base.read(t, base.run(t, src), "rand_out")

		warm := newHarness(t, Options{Reuse: true, KeepWholeJobs: true, Heuristic: NoHeuristic})
		warm.fs.WriteFile("rand/part-00000", []byte(encodeRows(rows)))
		warm.run(t, src) // populate
		res := warm.run(t, src)
		got := warm.read(t, res, "rand_out")

		if len(got) != len(want) {
			t.Fatalf("trial %d: rows %d vs %d\nscript:\n%s", trial, len(got), len(want), src)
		}
		for i := range want {
			if !tuple.Equal(got[i], want[i]) {
				t.Fatalf("trial %d row %d: %v vs %v\nscript:\n%s", trial, i, got[i], want[i], src)
			}
		}
	}
}

func encodeRows(rows []tuple.Tuple) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(tuple.EncodeText(r))
		b.WriteByte('\n')
	}
	return b.String()
}

func TestEntriesReturnsCopy(t *testing.T) {
	// Regression: Entries used to leak the internal slice, letting
	// callers corrupt the repository's matching and eviction order.
	repo := NewRepository()
	a := entryFor(t, `
A = load 'pv' as (u, r);
B = foreach A generate u;
store B into 'o';
`, "a", EntryStats{InputSimBytes: 100, OutputSimBytes: 10})
	b := entryFor(t, `
A = load 'pv' as (u, r);
B = filter A by r > 1;
store B into 'o2';
`, "b", EntryStats{InputSimBytes: 100, OutputSimBytes: 50})
	repo.Insert(a)
	repo.Insert(b)

	got := repo.Entries()
	if len(got) != 2 {
		t.Fatalf("len = %d, want 2", len(got))
	}
	want0, want1 := got[0].ID, got[1].ID

	// Vandalize the returned slice: the repository must be unaffected.
	got[0], got[1] = got[1], got[0]
	got[0] = nil

	again := repo.Entries()
	if again[0] == nil || again[1] == nil {
		t.Fatalf("internal slice leaked: repository now holds nil entries")
	}
	if again[0].ID != want0 || again[1].ID != want1 {
		t.Errorf("caller mutation reordered the repository: [%s, %s], want [%s, %s]",
			again[0].ID, again[1].ID, want0, want1)
	}
}

func TestRepositoryConcurrentInsertLookup(t *testing.T) {
	// Hammer the repository from many goroutines: inserts of colliding
	// fingerprints, lookups, scans, reuse notes and vacuums must leave a
	// consistent index (run under -race in CI).
	repo := NewRepository()
	fs := dfs.New()
	sigs := make([]PlanSig, 4)
	for i := range sigs {
		e := entryFor(t, fmt.Sprintf(`
A = load 'pv%d' as (u, r);
B = foreach A generate u;
store B into 'o%d';
`, i, i), fmt.Sprintf("seed%d", i), EntryStats{InputSimBytes: 100, OutputSimBytes: 10})
		sigs[i] = e.Plan
	}
	// A concurrent Vacuum legitimately drops a just-inserted entry (its
	// output never existed), so the insert-then-lookup check only holds
	// when no vacuum overlapped it.
	var vacStarted, vacDone atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % len(sigs)
				e := &Entry{
					Plan:       sigs[k],
					OutputPath: fmt.Sprintf("stored/g%d/i%d", g, i),
					Stats:      EntryStats{InputSimBytes: int64(100 + i), OutputSimBytes: 10},
				}
				done, started := vacDone.Load(), vacStarted.Load()
				ins := repo.Insert(e)
				repo.NoteReuse(ins, time.Duration(i))
				found := repo.Lookup(sigs[k]) != nil
				if !found && started == done && vacStarted.Load() == started {
					t.Errorf("fingerprint vanished after insert")
					return
				}
				repo.Scan(func(*Entry) bool { return true })
				_ = repo.Entries()
				_ = repo.Len()
				if i%50 == 0 {
					vacStarted.Add(1)
					repo.Vacuum(fs, time.Hour, 0, nil, nil)
					vacDone.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	// Vacuum drops everything (outputs never existed in fs), proving the
	// index stayed coherent: no orphaned fingerprints.
	repo.Vacuum(fs, time.Hour, 0, nil, nil)
	if repo.Len() != 0 {
		t.Errorf("repository left %d entries with nonexistent outputs", repo.Len())
	}
	for _, s := range sigs {
		if repo.Lookup(s) != nil {
			t.Errorf("orphaned fingerprint survived vacuum")
		}
	}
}

func TestPinBlocksVacuum(t *testing.T) {
	fs := dfs.New()
	fs.WriteFile("stored/e/part-00000", []byte("x\n"))
	repo := NewRepository()
	e := entryFor(t, `
A = load 'pv' as (u, r);
B = foreach A generate u;
store B into 'o';
`, "", EntryStats{InputSimBytes: 10, OutputSimBytes: 5})
	e.OutputPath = "stored/e"
	ins := repo.Insert(e)
	lm := NewLeaseManager(fs, "locks", "w1", 0, 0)
	t.Cleanup(lm.Close)

	// Pinned: neither the reuse window nor output deletion may evict it.
	lm.Pin(ins.ID)
	fs.Delete("stored/e") // makes the entry invalid (Rule 4)...
	if removed, _ := repo.Vacuum(fs, 100*time.Hour, time.Hour, lm, nil); len(removed) != 0 {
		t.Fatalf("vacuum removed a pinned entry: %v", removed)
	}
	if repo.Len() != 1 {
		t.Fatalf("pinned entry vanished")
	}

	// Pins nest: one Unpin of two leaves it protected.
	lm.Pin(ins.ID)
	lm.Unpin(ins.ID)
	if removed, _ := repo.Vacuum(fs, 100*time.Hour, time.Hour, lm, nil); len(removed) != 0 {
		t.Fatalf("vacuum removed an entry with a remaining pin: %v", removed)
	}

	// Fully unpinned: ...and is collected on the next pass.
	lm.Unpin(ins.ID)
	if removed, _ := repo.Vacuum(fs, 100*time.Hour, time.Hour, lm, nil); len(removed) != 1 {
		t.Fatalf("unpinned invalid entry survived: %d removed", len(removed))
	}
	if repo.Len() != 0 {
		t.Errorf("repository not empty after unpinned vacuum")
	}
}
