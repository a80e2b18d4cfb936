package main

import (
	"fmt"
	"math/rand"

	"repro"
	"repro/internal/dfs"
	"repro/internal/exp"
	"repro/internal/pigmix"
)

// An op is one step of a client's closed loop.
type opKind int

const (
	opQuery  opKind = iota // submit a script and wait for its result
	opAppend               // append one part file to the input (timed, not a query)
	opSweep                // System.Sweep(), the janitor stand-in (timed, not a query)
)

type op struct {
	kind   opKind
	name   string // script name: L3, N1, cold-17 …
	script string
	output string // the script's user STORE path
	check  bool   // compare this query's output with the reuse-off oracle
}

// spec is one workload: a system configuration, a data generator and a
// seeded op stream. Everything the program under test sees — scripts
// and data — is generated from the seed here.
type spec struct {
	name string
	why  string
	// clients is the closed-loop client count of the untraced run (the
	// traced run always uses one, and so do its untraced base and the
	// transparency test, on a copy of the spec).
	clients int
	// http drives the system through service.Server.Handler() instead
	// of restore.Submit.
	http bool
	// durable turns the journal and leases on (files of the backend).
	durable bool
	nsRoot  string
	opts    restore.Options
	// tune, when set, adjusts the remaining Config fields (cache and
	// repository budgets).
	tune func(*restore.Config)
	// generate writes the input datasets and returns the engine's byte
	// and record scale factors.
	generate func(fs dfs.Backend, seed int64, quick bool) (simScale, recordScale float64, err error)
	// inputPath is the dataset the queries scan (codec replay reads its
	// part files).
	inputPath string
	// appendInput grows the input by one part file (opAppend).
	appendInput func(fs dfs.Backend, seed int64, quick bool) error
	// warm lists the queries setup runs before the first measured op.
	warm func(seed int64) []op
	// stream generates the measured ops: [pass][client][]op, with
	// perPass queries per pass in total.
	stream func(seed int64, passes, perPass, clients int) [][][]op
	// qps is the calibrated number of measured queries per second of
	// -seconds on the reference box (2-core Xeon 2.1 GHz): the measured
	// phase runs round(qps × seconds) queries, a fixed count, so every
	// counted metric repeats exactly for a given -seconds.
	qps float64
	// group is the indivisible unit of the stream in queries (one
	// round-robin lap, one append cycle): perPass is a multiple of it.
	group int
}

// inputRoot is the directory every generated input lives under.
const inputRoot = "pigmix"

const (
	coldBudgetBytes = 4 << 20
	coldCacheBytes  = 1 << 20
	sweepEvery      = 20 // cold-store: queries between janitor sweeps
	checkEveryCold  = 10 // cold-store: every Nth novel query is oracle-checked
	checkEveryCycle = 50 // append-refresh: one of N1–N4, in rotation, is checked after every Nth append
	zipfSkew        = 1.1
	netDays         = 30
	netRowsPerDay   = 500
)

var reuseOn = restore.Options{Reuse: true, Heuristic: restore.Aggressive, KeepWholeJobs: true}

// warmNames is the warm-zipf script set, most popular first under the
// Zipf draw: CoreSuite ∪ VariantSuite. The order is fixed — the seed
// drives the draws, not which script is hot — so the work per run does
// not depend on the seed.
var warmNames = func() []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range append(append([]string(nil), pigmix.CoreSuite...), pigmix.VariantSuite...) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}()

func pigmixOp(name string) op {
	q, err := pigmix.Get(name)
	if err != nil {
		panic(err) // a name from the package's own suites
	}
	return op{kind: opQuery, name: q.Name, script: q.Script, output: q.Output}
}

func pigmixOps(names []string) []op {
	out := make([]op, len(names))
	for i, n := range names {
		out[i] = pigmixOp(n)
	}
	return out
}

// pageViews generates a PigMix instance with the given page_views row
// count, scaled as the paper's 15 GB instance is.
func pageViews(rows int) func(fs dfs.Backend, seed int64, quick bool) (float64, float64, error) {
	return func(fs dfs.Backend, seed int64, quick bool) (float64, float64, error) {
		n := rows
		if quick {
			n = rows / 4
		}
		sc := pigmix.Scale{
			Name:           fmt.Sprintf("bench-%d", n),
			PageViews:      n,
			TargetSimBytes: pigmix.Scale15GB.TargetSimBytes * int64(n) / int64(pigmix.Scale15GB.PageViews),
			TargetRows:     pigmix.Scale15GB.TargetRows * int64(n) / int64(pigmix.Scale15GB.PageViews),
		}
		if _, err := pigmix.Generate(fs, sc, seed); err != nil {
			return 0, 0, err
		}
		return pigmix.SimScaleFor(fs, sc), pigmix.RecordScaleFor(sc), nil
	}
}

// markFirstLast flags, per client, the first and last occurrence of
// every distinct script for the oracle check.
func markFirstLast(stream [][][]op) {
	if len(stream) == 0 {
		return
	}
	for c := range stream[0] {
		first, last := map[string]*op{}, map[string]*op{}
		for p := range stream {
			for i := range stream[p][c] {
				o := &stream[p][c][i]
				if o.kind != opQuery {
					continue
				}
				if first[o.name] == nil {
					first[o.name] = o
				}
				last[o.name] = o
			}
		}
		for _, o := range first {
			o.check = true
		}
		for _, o := range last {
			o.check = true
		}
	}
}

// split deals perPass queries out to the clients of one pass.
func split(perPass, clients, c int) int {
	n := perPass / clients
	if c < perPass%clients {
		n++
	}
	return n
}

var engineScan = spec{
	name:      "engine-scan",
	why:       "stock Pig (reuse off, memory backend, input cached): the mapreduce+expr+tuple row pipeline does the work; matcher, journal and leases do none",
	clients:   1,
	opts:      restore.Options{DeleteTemps: true},
	generate:  pageViews(10_000),
	inputPath: pigmix.PathPageViews,
	warm:      func(int64) []op { return pigmixOps(pigmix.CoreSuite) },
	stream: func(seed int64, passes, perPass, clients int) [][][]op {
		order := pigmixOps(pigmix.CoreSuite)
		rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		out := make([][][]op, passes)
		next := 0
		for p := range out {
			out[p] = make([][]op, clients)
			for c := range out[p] {
				for i := 0; i < split(perPass, clients, c); i++ {
					out[p][c] = append(out[p][c], order[next%len(order)])
					next++
				}
			}
		}
		markFirstLast(out)
		return out
	},
	qps:   50,
	group: len(pigmix.CoreSuite),
}

// coldTemplates are the cold-store query shapes. The first operator
// above every LOAD is a filter carrying a seed-drawn constant no other
// query of the run uses, so no plan shares a prefix with an earlier one
// and nothing matches. The constant excludes a single row, so the work
// per query stays level while every plan is new. PARALLEL 4, as PigMix's
// L6 has it, keeps the part files per stored output at 4 instead of the
// cluster's 28 reduce slots.
var coldTemplates = []func(k int, out string) string{
	// group-sum
	func(k int, out string) string {
		return fmt.Sprintf(`A = load '%s' as (%s);
F = filter A by timespent >= 15 and timestamp != %d;
B = foreach F generate user, timespent;
G = group B by user parallel 4;
S = foreach G generate group, SUM(B.timespent);
store S into '%s';
`, pigmix.PathPageViews, pigmix.PageViewsSchema, 1_300_000_000+k, out)
	},
	// distinct-count
	func(k int, out string) string {
		return fmt.Sprintf(`A = load '%s' as (%s);
F = filter A by timespent >= 15 and timestamp != %d;
B = foreach F generate user, action;
D = distinct B parallel 4;
G = group D by user parallel 4;
S = foreach G generate group, COUNT(D);
store S into '%s';
`, pigmix.PathPageViews, pigmix.PageViewsSchema, 1_300_000_000+k, out)
	},
	// join+group
	func(k int, out string) string {
		return fmt.Sprintf(`A = load '%s' as (%s);
F = filter A by timespent >= 15 and timestamp != %d;
B = foreach F generate user, timespent;
alpha = load '%s' as (name, phone, address, city);
phi = filter alpha by name != 'u%d';
beta = foreach phi generate name;
C = join beta by name, B by user parallel 4;
D = group C by $0 parallel 4;
E = foreach D generate group, SUM(C.timespent);
store E into '%s';
`, pigmix.PathPageViews, pigmix.PageViewsSchema, 1_300_000_000+k, pigmix.PathUsers, 1_000_000+k, out)
	},
}

// coldOps generates n novel queries, numbered from base, each with a
// constant no other query of the run uses.
func coldOps(seed int64, base, n int) []op {
	// One permutation per run: query i takes constant perm[i], so no
	// two queries — of one template or across templates, which share
	// the load→filter prefix — ever carry the same constant.
	if base+n > coldConstants {
		panic(fmt.Sprintf("cold-store: %d queries exceed the %d distinct constants", base+n, coldConstants))
	}
	perm := rand.New(rand.NewSource(seed)).Perm(coldConstants)
	out := make([]op, n)
	for i := range out {
		id := base + i
		path := fmt.Sprintf("out/cold/%d", id)
		out[i] = op{
			kind:   opQuery,
			name:   fmt.Sprintf("cold-%d", id),
			script: coldTemplates[id%len(coldTemplates)](perm[id], path),
			output: path,
		}
	}
	return out
}

// coldConstants is the pool of distinct filter constants, and so the
// most novel queries one run can issue.
const coldConstants = 1800

var coldStore = spec{
	name:    "cold-store",
	why:     "the paper's overhead case: every plan is new, so the repository only inserts and evicts; DFS read+decode, extra Store outputs, journal, claims and eviction carry the cost",
	clients: 1,
	durable: true,
	nsRoot:  ".restore",
	// Sub-job stores only, no KeepWholeJobs: with whole jobs kept, a
	// final job's output is registered twice under one fingerprint (as
	// the final operator's zero-cost sub-job and as the whole job) and
	// Repository.Insert folds the two into an entry that is not marked
	// WholeJob yet points at the user's STORE path — which budget
	// eviction then deletes. The oracle check caught that as a missing
	// output; a workload may not contain failing operations, so the
	// overhead case stores what the paper's overhead figures measure,
	// the sub-job outputs. See README.md, "Findings".
	opts: restore.Options{Reuse: true, Heuristic: restore.Aggressive},
	tune: func(c *restore.Config) {
		c.MaxCachedBatchBytes = coldCacheBytes
		c.MaxRepositoryBytes = coldBudgetBytes
	},
	generate:  pageViews(1_500),
	inputPath: pigmix.PathPageViews,
	warm:      func(seed int64) []op { return coldOps(seed, 0, len(coldTemplates)) },
	stream: func(seed int64, passes, perPass, clients int) [][][]op {
		all := coldOps(seed, len(coldTemplates), passes*perPass)
		out := make([][][]op, passes)
		next := 0
		for p := range out {
			out[p] = make([][]op, clients)
			for c := range out[p] {
				for i := 0; i < split(perPass, clients, c); i++ {
					o := all[next]
					next++
					o.check = next%checkEveryCold == 0
					out[p][c] = append(out[p][c], o)
					if next%sweepEvery == 0 {
						out[p][c] = append(out[p][c], op{kind: opSweep, name: "sweep"})
					}
				}
			}
		}
		return out
	},
	qps:   34,
	group: 1,
}

var warmZipf = spec{
	name:      "warm-zipf",
	why:       "the repeated-dashboard case through the HTTP front door: every query reuses and runs only a tiny final job, so compile, probe/rewrite, per-job fixed DFS cost, journal, STORE commit and HTTP dominate",
	clients:   2,
	http:      true,
	durable:   true,
	nsRoot:    ".restore",
	opts:      reuseOn,
	generate:  pageViews(pigmix.Scale15GB.PageViews),
	inputPath: pigmix.PathPageViews,
	warm:      func(int64) []op { return pigmixOps(warmNames) },
	stream: func(seed int64, passes, perPass, clients int) [][][]op {
		out := make([][][]op, passes)
		for p := range out {
			out[p] = make([][]op, clients)
		}
		for c := 0; c < clients; c++ {
			mix, err := exp.NewZipfMix(warmNames, zipfSkew, seed*7919+int64(c))
			if err != nil {
				panic(err) // fixed, valid arguments
			}
			for p := range out {
				for i := 0; i < split(perPass, clients, c); i++ {
					out[p][c] = append(out[p][c], pigmixOp(mix.Pick()))
				}
			}
		}
		markFirstLast(out)
		return out
	},
	qps:   300,
	group: 2,
}

func netScale(fs dfs.Backend) float64 {
	if n := fs.Size(pigmix.PathNetTraffic); n > 0 {
		return float64(pigmix.Scale15GB.TargetSimBytes) / float64(n)
	}
	return 1
}

func netRows(quick bool) int {
	if quick {
		return netRowsPerDay / 4
	}
	return netRowsPerDay
}

var appendRefresh = spec{
	name:      "append-refresh",
	why:       "the repository used as replace instead of read: every query delta-refreshes a stored aggregate after an append (classify, delta job, merge, re-register, journal) over a growing file list",
	clients:   1,
	durable:   true,
	nsRoot:    ".restore",
	opts:      reuseOn,
	inputPath: pigmix.PathNetTraffic,
	generate: func(fs dfs.Backend, seed int64, quick bool) (float64, float64, error) {
		if err := pigmix.GenerateNetTraffic(fs, netDays, netRows(quick), seed); err != nil {
			return 0, 0, err
		}
		s := netScale(fs)
		return s, s, nil
	},
	appendInput: func(fs dfs.Backend, seed int64, quick bool) error {
		_, err := pigmix.AppendNetTrafficDay(fs, netRows(quick), seed)
		return err
	},
	warm: func(int64) []op { return pigmixOps(pigmix.NetTrafficSuite) },
	stream: func(seed int64, passes, perPass, clients int) [][][]op {
		suite := pigmixOps(pigmix.NetTrafficSuite)
		out := make([][][]op, passes)
		perCycle := perPass / len(suite)
		cycle, checkpoints := 0, 0
		for p := range out {
			out[p] = make([][]op, clients)
			// Appends and their queries must stay ordered: one client.
			for i := 0; i < perCycle; i++ {
				cycle++
				out[p][0] = append(out[p][0], op{kind: opAppend, name: "append"})
				// A cold recompute reads every day ever appended, so one
				// oracle run costs what hundreds of refreshes do: sample
				// one query per checkpoint, in rotation — every Nth append
				// and the last.
				sample := -1
				if cycle%checkEveryCycle == 0 || cycle == passes*perCycle {
					sample = checkpoints % len(suite)
					checkpoints++
				}
				for j, q := range suite {
					q.check = j == sample
					out[p][0] = append(out[p][0], q)
				}
			}
		}
		return out
	},
	qps:   110,
	group: len(pigmix.NetTrafficSuite),
}

var workloads = []*spec{&engineScan, &coldStore, &warmZipf, &appendRefresh}

func findWorkload(name string) *spec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
