package engineflags

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
)

// TestResolve parses each flag combination with the server's defaults
// (tiny, reuse on, aggressive) and checks what it resolves to; a case
// with a wantErr must fail and name the accepted values.
func TestResolve(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		check   func(t *testing.T, r Resolved)
		wantErr string
	}{
		{name: "defaults", check: func(t *testing.T, r Resolved) {
			want := restore.Options{Reuse: true, Heuristic: core.Aggressive, KeepWholeJobs: true}
			if r.Options != want {
				t.Errorf("options = %+v, want %+v", r.Options, want)
			}
			if r.Scale.Name != "tiny" {
				t.Errorf("scale = %s, want tiny", r.Scale.Name)
			}
			if r.Config.Eviction != (restore.CostBenefitPolicy{}) {
				t.Errorf("eviction = %#v, want cost-benefit", r.Config.Eviction)
			}
			if r.Config.MaxRepositoryBytes != 0 || r.Config.MaxCachedBatchBytes != 0 {
				t.Errorf("budgets = %d, %d, want 0, 0", r.Config.MaxRepositoryBytes, r.Config.MaxCachedBatchBytes)
			}
		}},
		{name: "heuristic off", args: []string{"-heuristic", "off"}, check: heuristic(core.HeuristicOff)},
		{name: "heuristic conservative", args: []string{"-heuristic", "conservative"}, check: heuristic(core.Conservative)},
		{name: "heuristic aggressive", args: []string{"-heuristic", "aggressive"}, check: heuristic(core.Aggressive)},
		{name: "heuristic no-heuristic", args: []string{"-heuristic", "no-heuristic"}, check: heuristic(core.NoHeuristic)},
		{name: "unknown heuristic", args: []string{"-heuristic", "greedy"}, wantErr: `unknown heuristic "greedy"`},
		{name: "scale tiny", args: []string{"-scale", "tiny"}, check: scale("tiny")},
		{name: "scale 15GB", args: []string{"-scale", "15GB"}, check: scale("15GB")},
		{name: "scale 150GB", args: []string{"-scale", "150gb"}, check: scale("150GB")},
		{name: "unknown scale", args: []string{"-scale", "1TB"}, wantErr: "want tiny, 15GB or 150GB"},
		{name: "reuse-window", args: []string{"-evict", "reuse-window", "-evict-window", "30m", "-max-repo-mb", "2"},
			check: func(t *testing.T, r Resolved) {
				if r.Config.Eviction != (restore.ReuseWindowPolicy{Window: 30 * time.Minute}) {
					t.Errorf("eviction = %#v, want reuse-window with a 30m window", r.Config.Eviction)
				}
				if r.Config.MaxRepositoryBytes != 2<<20 {
					t.Errorf("MaxRepositoryBytes = %d, want %d", r.Config.MaxRepositoryBytes, 2<<20)
				}
			}},
		{name: "lru is reuse-window with no window", args: []string{"-evict", "lru", "-evict-window", "30m"}, check: eviction(restore.ReuseWindowPolicy{})},
		{name: "cost-benefit", args: []string{"-evict", "cost-benefit"}, check: eviction(restore.CostBenefitPolicy{})},
		{name: "unknown policy", args: []string{"-evict", "fifo"}, wantErr: `unknown eviction policy "fifo" (want reuse-window, lru or cost-benefit)`},
		{name: "undocumented alias", args: []string{"-evict", "cb"}, wantErr: "want reuse-window, lru or cost-benefit"},
		{name: "batch cache budget", args: []string{"-batch-cache-mb", "3"}, check: batchCache(3 << 20)},
		{name: "negative batch cache turns it off", args: []string{"-batch-cache-mb", "-5"}, check: batchCache(-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f := Register(fs, "tiny", true, "aggressive")
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			r, err := f.Resolve()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, r)
		})
	}
}

func heuristic(want core.Heuristic) func(*testing.T, Resolved) {
	return func(t *testing.T, r Resolved) {
		if r.Options.Heuristic != want {
			t.Errorf("heuristic = %v, want %v", r.Options.Heuristic, want)
		}
	}
}

func scale(want string) func(*testing.T, Resolved) {
	return func(t *testing.T, r Resolved) {
		if r.Scale.Name != want {
			t.Errorf("scale = %s, want %s", r.Scale.Name, want)
		}
	}
}

func eviction(want restore.EvictionPolicy) func(*testing.T, Resolved) {
	return func(t *testing.T, r Resolved) {
		if r.Config.Eviction != want {
			t.Errorf("eviction = %#v, want %#v", r.Config.Eviction, want)
		}
	}
}

func batchCache(want int64) func(*testing.T, Resolved) {
	return func(t *testing.T, r Resolved) {
		if r.Config.MaxCachedBatchBytes != want {
			t.Errorf("MaxCachedBatchBytes = %d, want %d", r.Config.MaxCachedBatchBytes, want)
		}
	}
}
