package mapreduce

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/logical"
	"repro/internal/mrcompile"
	"repro/internal/physical"
	"repro/internal/piglatin"
	"repro/internal/tuple"
)

// putDataset inserts a synthetic single-file dataset of mem bytes.
func putDataset(c *BatchCache, fs *dfs.FS, path string, rows int) {
	var data []byte
	for i := 0; i < rows; i++ {
		data = append(data, []byte(fmt.Sprintf("%d\tval\n", i))...)
	}
	if err := fs.WriteFile(path+"/part-00000", data); err != nil {
		panic(err)
	}
	b, err := tuple.DecodeTextBatch(data)
	if err != nil {
		panic(err)
	}
	ds := &cachedDataset{path: path, version: fs.Version(path)}
	ds.add(path+"/part-00000", b)
	c.Put(ds)
}

func TestBatchCacheHitMissInvalidate(t *testing.T) {
	fs := dfs.New()
	c := NewBatchCache(fs, 1<<20)
	if c.Get("a") != nil {
		t.Fatal("empty cache hit")
	}
	putDataset(c, fs, "a", 10)
	if c.Get("a") == nil {
		t.Fatal("fresh entry missed")
	}
	// Any write under the dataset bumps its version and must drop it.
	if err := fs.WriteFile("a/part-00001", []byte("9\tnine\n")); err != nil {
		t.Fatal(err)
	}
	if c.Get("a") != nil {
		t.Fatal("stale entry served after version bump")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Entries != 0 || st.UsedBytes != 0 {
		t.Fatalf("invalidated entry still accounted: %+v", st)
	}
}

func TestBatchCacheLRUEviction(t *testing.T) {
	fs := dfs.New()
	c := NewBatchCache(fs, 1) // any insert overflows; only the newest survives
	putDataset(c, fs, "d0", 50)
	putDataset(c, fs, "d1", 50)
	st := c.Stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if c.Get("d1") == nil {
		t.Fatal("newest entry evicted instead of coldest")
	}
	if c.Get("d0") != nil {
		t.Fatal("coldest entry survived over budget")
	}
}

func TestBatchCacheLRURecency(t *testing.T) {
	fs := dfs.New()
	// Budget fits two of the three datasets.
	probe := NewBatchCache(fs, 1<<30)
	putDataset(probe, fs, "size-probe", 50)
	one := probe.Stats().UsedBytes
	c := NewBatchCache(fs, 2*one)
	putDataset(c, fs, "d0", 50)
	putDataset(c, fs, "d1", 50)
	if c.Get("d0") == nil { // refresh d0's recency
		t.Fatal("d0 missing")
	}
	putDataset(c, fs, "d2", 50) // evicts d1, the least recently used
	if c.Get("d1") != nil {
		t.Fatal("LRU victim survived")
	}
	if c.Get("d0") == nil || c.Get("d2") == nil {
		t.Fatal("recently used entries evicted")
	}
}

// compileScript builds the workflow's jobs for engine-level cache tests.
func compileScript(t *testing.T, src string) []*physical.Job {
	t.Helper()
	script, err := piglatin.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := logical.Build(script)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := mrcompile.Compile(lp, mrcompile.Options{TempPrefix: "tmp/bc", DefaultReducers: 3})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := wf.TopoJobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func seedInput(t *testing.T, fs *dfs.FS, path string, n, gen int) {
	t.Helper()
	var data []byte
	for i := 0; i < n; i++ {
		data = append(data, []byte(fmt.Sprintf("user%d\t%d\n", i%7, i+gen))...)
	}
	if err := fs.WriteFile(path+"/part-00000", data); err != nil {
		t.Fatal(err)
	}
}

const cacheScript = `
A = load 'in' as (user, amount);
B = group A by user;
C = foreach B generate group, COUNT(A);
store C into 'out';
`

// TestEngineCacheWarmRunsIdentical runs one job cold then warm and
// checks the warm run hits the cache and writes byte-identical output
// with identical simulated time.
func TestEngineCacheWarmRunsIdentical(t *testing.T) {
	fs := dfs.New()
	seedInput(t, fs, "in", 200, 0)
	eng := New(fs, Config{Cost: cluster.DefaultCostModel()})
	jobs := compileScript(t, cacheScript)
	if len(jobs) != 1 {
		t.Fatalf("want 1 job, got %d", len(jobs))
	}

	run := func() (*JobStats, map[string][]byte) {
		st, err := runJob(eng, jobs[0])
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, f := range fs.List("out") {
			data, err := fs.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			files[f] = data
		}
		return st, files
	}

	cold, coldOut := run()
	cs := eng.CacheStats()
	if cs.Hits != 0 || cs.Misses == 0 || cs.Inserts == 0 {
		t.Fatalf("cold stats = %+v", cs)
	}

	warm, warmOut := run()
	ws := eng.CacheStats()
	if ws.Hits == 0 {
		t.Fatalf("warm run missed the cache: %+v", ws)
	}
	if cold.SimTime != warm.SimTime {
		t.Fatalf("SimTime diverged: cold %v, warm %v", cold.SimTime, warm.SimTime)
	}
	// The decode timer: a cold run decodes its input, a warm one does
	// not.
	if cold.DecodeTime <= 0 || warm.DecodeTime != 0 {
		t.Fatalf("DecodeTime: cold %v (want > 0), warm %v (want 0)", cold.DecodeTime, warm.DecodeTime)
	}
	if len(coldOut) != len(warmOut) {
		t.Fatalf("output file sets diverged: %d vs %d", len(coldOut), len(warmOut))
	}
	for f, want := range coldOut {
		if got, ok := warmOut[f]; !ok || string(got) != string(want) {
			t.Fatalf("output %s diverged", f)
		}
	}
}

// TestEngineCacheFillsOnRead checks a job's output enters the cache
// only when a later job reads it: the first read misses and fills, the
// second hits, and both give the rows a cache-off engine gives.
func TestEngineCacheFillsOnRead(t *testing.T) {
	first := compileScript(t, cacheScript)
	second := compileScript(t, `
X = load 'out' as (user, cnt);
Y = filter X by cnt > 1;
store Y into 'out2';
`)
	read := func(fs *dfs.FS) string {
		out := map[string]string{}
		for _, f := range fs.List("out2") {
			data, err := fs.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			out[f] = string(data)
		}
		return fmt.Sprint(out)
	}
	run := func(eng *Engine, job *physical.Job) {
		t.Helper()
		if _, err := runJob(eng, job); err != nil {
			t.Fatal(err)
		}
	}

	offFS := dfs.New()
	seedInput(t, offFS, "in", 100, 0)
	off := New(offFS, Config{MaxCachedBatchBytes: -1})
	run(off, first[0])
	run(off, second[0])
	want := read(offFS)

	fs := dfs.New()
	seedInput(t, fs, "in", 100, 0)
	eng := New(fs, Config{Cost: cluster.DefaultCostModel()})
	run(eng, first[0])
	if slices.Contains(eng.CachedPaths(), "out") {
		t.Fatalf("writing out cached it: %v", eng.CachedPaths())
	}
	for i, wantHits := range []int64{0, 1} {
		before := eng.CacheStats()
		run(eng, second[0])
		after := eng.CacheStats()
		if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != wantHits || misses != 1-wantHits {
			t.Fatalf("read %d of out: %d hits and %d misses, want %d and %d", i+1, hits, misses, wantHits, 1-wantHits)
		}
		if !slices.Contains(eng.CachedPaths(), "out") {
			t.Fatalf("read %d of out left it uncached: %v", i+1, eng.CachedPaths())
		}
		if got := read(fs); got != want {
			t.Fatalf("read %d of out: rows %s, cache off %s", i+1, got, want)
		}
	}
}

// TestEngineCacheDisabledRun checks an engine built with a negative
// cache budget keeps no cache state and still produces bytes and a
// simulated time identical to a cached engine's.
func TestEngineCacheDisabledRun(t *testing.T) {
	jobs := compileScript(t, cacheScript)
	run := func(cfg Config) (*Engine, *JobStats, map[string]string) {
		fs := dfs.New()
		seedInput(t, fs, "in", 150, 0)
		eng := New(fs, cfg)
		st, err := runJob(eng, jobs[0])
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, f := range fs.List("out") {
			data, err := fs.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			out[f] = string(data)
		}
		return eng, st, out
	}
	_, wantStats, want := run(Config{Cost: cluster.DefaultCostModel()})
	offCfg := Config{Cost: cluster.DefaultCostModel()}
	offCfg.MaxCachedBatchBytes = -1
	off, gotStats, got := run(offCfg)
	if st := off.CacheStats(); st != (BatchCacheStats{}) {
		t.Fatalf("negative budget should zero stats: %+v", st)
	}
	if gotStats.SimTime != wantStats.SimTime {
		t.Fatalf("SimTime diverged: cache off %v, on %v", gotStats.SimTime, wantStats.SimTime)
	}
	if gotStats.DecodeTime <= 0 {
		t.Fatalf("cache off: DecodeTime %v: want > 0", gotStats.DecodeTime)
	}
	if len(got) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cache-off output diverges from cached output:\n%v\nvs\n%v", got, want)
	}
}

// TestBatchCacheConcurrentChurn races engine runs against input
// rewrites, deletes and renames made on the DFS behind the engine's
// back, and direct cache traffic. Run under -race it is the cache's
// concurrency proof; the invariants checked are that the quiescent
// cache holds only datasets the DFS has, at the versions it has them,
// and that a final run still produces the fresh-decode output.
func TestBatchCacheConcurrentChurn(t *testing.T) {
	fs := dfs.New()
	for d := 0; d < 3; d++ {
		seedInput(t, fs, fmt.Sprintf("churn%d", d), 60, 0)
	}
	eng := New(fs, Config{MaxCachedBatchBytes: 1 << 16}) // small budget: force evictions
	scripts := make([][]*physical.Job, 3)
	for d := 0; d < 3; d++ {
		scripts[d] = compileScript(t, fmt.Sprintf(`
A = load 'churn%d' as (user, amount);
B = group A by user;
C = foreach B generate group, COUNT(A);
store C into 'churnout%d';
`, d, d))
	}

	errc := make(chan error, 64)
	var wg sync.WaitGroup
	// Readers: repeated engine runs over the three datasets.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if _, err := runJob(eng, scripts[(w+i)%3][0]); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	// Writer: rewrites dataset files, bumping versions mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 10; i++ {
			var data []byte
			for r := 0; r < 60; r++ {
				data = append(data, []byte(fmt.Sprintf("user%d\t%d\n", r%7, r+i))...)
			}
			if err := fs.WriteFile(fmt.Sprintf("churn%d/part-00000", i%3), data); err != nil {
				errc <- err
				return
			}
		}
	}()
	// Mover: caches datasets, then renames and deletes them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var decode time.Duration
		for i := 0; i < 20; i++ {
			from, to := fmt.Sprintf("mv%d", i%2), fmt.Sprintf("mvdst%d", i%2)
			if err := fs.WriteFile(from+"/part-00000", []byte(fmt.Sprintf("user%d\t%d\n", i%7, i))); err != nil {
				errc <- err
				return
			}
			if _, err := eng.loadDataset(from, &decode); err != nil {
				errc <- err
				return
			}
			if _, err := fs.Rename(from, to); err != nil {
				errc <- err
				return
			}
			if _, err := eng.loadDataset(to, &decode); err != nil {
				errc <- err
				return
			}
			if err := fs.Delete(to); err != nil {
				errc <- err
				return
			}
		}
	}()
	// Stats reader and direct cache churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = eng.CacheStats()
			_ = eng.cache.Get(fmt.Sprintf("churn%d", i%3))
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Quiescent: every entry is a dataset the DFS holds at its stamp.
	for _, path := range eng.CachedPaths() {
		if ds := eng.cache.Get(path); ds == nil || !fs.Exists(path) || ds.version != fs.Version(path) {
			t.Fatalf("the cache holds %s, which the DFS does not have at its stamp", path)
		}
	}

	// A fresh cacheless engine and the churned one must agree.
	want := New(fs, Config{MaxCachedBatchBytes: -1})
	for d := 0; d < 3; d++ {
		if _, err := runJob(eng, scripts[d][0]); err != nil {
			t.Fatal(err)
		}
		churned := map[string]string{}
		for _, f := range fs.List(fmt.Sprintf("churnout%d", d)) {
			data, _ := fs.ReadFile(f)
			churned[f] = string(data)
		}
		if _, err := runJob(want, scripts[d][0]); err != nil {
			t.Fatal(err)
		}
		for _, f := range fs.List(fmt.Sprintf("churnout%d", d)) {
			data, _ := fs.ReadFile(f)
			if churned[f] != string(data) {
				t.Fatalf("dataset %d: churned output diverges from fresh decode at %s", d, f)
			}
		}
	}
}

// loadAll reads each dataset through the engine, filling its cache.
func loadAll(t *testing.T, eng *Engine, paths ...string) {
	t.Helper()
	var decode time.Duration
	for _, p := range paths {
		if _, err := eng.loadDataset(p, &decode); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchCacheSeesRawChanges: a delete, a rename or a write made on
// the DFS directly, with no engine call, takes the dataset's decoded
// copy out of the cache by the next cache operation.
func TestBatchCacheSeesRawChanges(t *testing.T) {
	fs := dfs.New()
	for _, p := range []string{"gone", "moved", "grown", "kept"} {
		seedInput(t, fs, p, 20, 0)
	}
	eng := New(fs, Config{Cost: cluster.DefaultCostModel()})
	loadAll(t, eng, "gone", "moved", "grown", "kept")
	if got := eng.CachedPaths(); len(got) != 4 {
		t.Fatalf("cached %v, want all four datasets", got)
	}
	if err := fs.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Rename("moved", "elsewhere"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("grown/part-00001", []byte("user1\t5\n")); err != nil {
		t.Fatal(err)
	}
	if got := eng.CachedPaths(); !slices.Equal(got, []string{"kept"}) {
		t.Fatalf("after raw changes the cache holds %v, want [kept]", got)
	}
	if st := eng.CacheStats(); st.Invalidations != 3 {
		t.Fatalf("%d invalidations, want 3", st.Invalidations)
	}
}

// TestBatchCacheFeedOverrun: more than dfs.FeedRing bumps between two
// cache operations overrun its cursor, and the full pass that follows
// drops the stale entries and keeps the fresh ones.
func TestBatchCacheFeedOverrun(t *testing.T) {
	fs := dfs.New()
	seedInput(t, fs, "fresh", 20, 0)
	seedInput(t, fs, "stale", 20, 0)
	eng := New(fs, Config{Cost: cluster.DefaultCostModel()})
	loadAll(t, eng, "fresh", "stale")
	seedInput(t, fs, "stale", 20, 1)
	for i := 0; i < dfs.FeedRing; i++ {
		if err := fs.WriteFile("noise/part-00000", []byte("x\n")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, complete := fs.Changes(eng.cache.cursor); complete {
		t.Fatal("the feed still holds the cursor; the full pass is not reached")
	}
	if got := eng.CachedPaths(); !slices.Equal(got, []string{"fresh"}) {
		t.Fatalf("after the overrun the cache holds %v, want [fresh]", got)
	}
	if eng.cache.Get("fresh") == nil {
		t.Fatal("the full pass dropped the fresh entry")
	}
	if st := eng.CacheStats(); st.Invalidations != 1 {
		t.Fatalf("%d invalidations, want 1", st.Invalidations)
	}
}

// TestBatchCacheKeepsEntryNewerThanChange: a drained change at or below
// an entry's stamp is one the entry was decoded after, so it does not
// drop the entry.
func TestBatchCacheKeepsEntryNewerThanChange(t *testing.T) {
	fs := dfs.New()
	c := NewBatchCache(fs, 1<<20)
	before := c.cursor
	seedInput(t, fs, "a", 10, 0)
	putDataset(c, fs, "a", 10) // rewrites a, then stamps the entry
	c.cursor = before          // both bumps of a are not drained yet
	if c.Get("a") == nil {
		t.Fatal("a change older than the entry's stamp dropped it")
	}
	if st := c.Stats(); st.Invalidations != 0 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBatchCacheChargesWhatItAdds: a cached batch is charged what it
// adds beyond the DFS's file text. Two datasets whose text is each
// larger than the budget, but whose columns fit in it together, both
// stay resident: the second read of each is a hit.
func TestBatchCacheChargesWhatItAdds(t *testing.T) {
	fs := dfs.New()
	const budget = 16 << 10
	long := strings.Repeat("x", 200)
	for _, p := range []string{"a", "b"} {
		rows := make([]tuple.Tuple, 200)
		for i := range rows {
			rows[i] = tuple.Tuple{int64(i), long + p}
		}
		writeDataset(t, fs, p, rows...)
		if n := fs.Size(p); n <= budget {
			t.Fatalf("dataset %s holds %d bytes of text, want more than the %d-byte budget", p, n, budget)
		}
	}
	e := New(fs, Config{Cost: cluster.DefaultCostModel(), MaxCachedBatchBytes: budget})
	var decode time.Duration
	for _, p := range []string{"a", "b", "a", "b"} {
		if _, err := e.loadDataset(p, &decode); err != nil {
			t.Fatal(err)
		}
	}
	st := e.CacheStats()
	if st.Hits != 2 || st.Misses != 2 || st.Evictions != 0 || st.UsedBytes > budget {
		t.Fatalf("two datasets whose columns fit the budget: %+v", st)
	}
}

// TestBatchCacheChargesUnescapedStrings: a field with an escape is the
// one string the decoder allocates instead of slicing the file's text,
// so its bytes are charged, and the cache accounts the charge.
func TestBatchCacheChargesUnescapedStrings(t *testing.T) {
	const rows = 50
	long := strings.Repeat("y", 100)
	var clean, escaped strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&clean, "%d\t%sab\n", i, long)      // canonical: no escape
		fmt.Fprintf(&escaped, "%d\t%sa\\tb\n", i, long) // unescapes to long+"a\tb"
	}
	cb, err := tuple.DecodeTextBatchString(clean.String(), true)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := tuple.DecodeTextBatchString(escaped.String(), true)
	if err != nil {
		t.Fatal(err)
	}
	// The clean batch keeps line offsets, 4 bytes per row and one more;
	// the escaped one keeps none, and owns its unescaped strings.
	unescaped := int64(rows * len(long+"a\tb"))
	if got, want := eb.MemBytes(), cb.MemBytes()-4*(rows+1)+unescaped; got != want {
		t.Fatalf("escaped batch MemBytes = %d, want %d (clean %d, %d unescaped bytes)", got, want, cb.MemBytes(), unescaped)
	}

	fs := dfs.New()
	if err := fs.WriteFile("e/part-00000", []byte(escaped.String())); err != nil {
		t.Fatal(err)
	}
	e := New(fs, Config{Cost: cluster.DefaultCostModel()})
	var decode time.Duration
	if _, err := e.loadDataset("e", &decode); err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.UsedBytes != eb.MemBytes() {
		t.Fatalf("cache charges %d bytes for the escaped dataset, its batch %d", st.UsedBytes, eb.MemBytes())
	}
}

// TestBatchCacheChargesDiskText: the text a Disk read returns is a
// buffer of the read's own, not contents the DFS holds in memory, so a
// cached batch that keeps it is charged all of it on top of what the
// same batch is charged over the in-memory backend.
func TestBatchCacheChargesDiskText(t *testing.T) {
	disk, err := dfs.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	var text strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&text, "%d\tterm%04d\t%d.5\n", i, i, i)
	}
	used := map[string]int64{}
	for name, fs := range map[string]dfs.Backend{"FS": dfs.New(), "Disk": disk} {
		if err := fs.WriteFile("d/part-00000", []byte(text.String())); err != nil {
			t.Fatal(err)
		}
		e := New(fs, Config{Cost: cluster.DefaultCostModel()})
		var decode time.Duration
		for range 2 {
			if _, err := e.loadDataset("d", &decode); err != nil {
				t.Fatal(err)
			}
		}
		st := e.CacheStats()
		if st.Hits != 1 || st.Entries != 1 {
			t.Fatalf("%s: second read of a cached dataset: %+v", name, st)
		}
		used[name] = st.UsedBytes
	}
	if got, want := used["Disk"], used["FS"]+int64(text.Len()); got != want {
		t.Fatalf("Disk dataset charged %d bytes, want %d: the FS charge %d and its %d bytes of text", got, want, used["FS"], text.Len())
	}
}
