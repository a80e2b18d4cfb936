package mapreduce

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/physical"
	"repro/internal/pigmix"
)

// TestAlgebraicGroupSetsPigMix pins, for every job of every PigMix
// query, what the map-side combiner takes (its aggregates, or a
// DISTINCT) and how physical.AnalyzeMerge classifies the job's plan
// for a delta refresh (union, or group with each output column's merge
// function). Both decide whether a GROUP's FOREACH is algebraic; this
// table holds which jobs each of them accepts.
func TestAlgebraicGroupSetsPigMix(t *testing.T) {
	// 38 jobs: 16 DISTINCTs, 16 combined GROUPs, 14 group-mergeable.
	// L3a and L8 combine a bare AVG, which the merge does not take: a
	// stored average cannot be re-averaged without its SUM and COUNT.
	want := []string{
		"L11 j1: combine=distinct merge=-",
		"L11 j3: combine=distinct merge=-",
		"L11 j2: combine=distinct merge=-",
		"L11a j1: combine=distinct merge=-",
		"L11a j3: combine=distinct merge=-",
		"L11a j2: combine=distinct merge=-",
		"L11b j1: combine=distinct merge=-",
		"L11b j3: combine=distinct merge=-",
		"L11b j2: combine=distinct merge=-",
		"L11c j1: combine=distinct merge=-",
		"L11c j3: combine=distinct merge=-",
		"L11c j2: combine=distinct merge=-",
		"L11d j1: combine=distinct merge=-",
		"L11d j3: combine=distinct merge=-",
		"L11d j2: combine=distinct merge=-",
		"L2 j1: combine=- merge=-",
		"L3 j1: combine=- merge=-",
		"L3 j3: combine=[SUM($1.$2)] merge=group(all=false key=0 key sum)",
		"L3a j1: combine=- merge=-",
		"L3a j3: combine=[AVG($1.$2)] merge=-",
		"L3b j1: combine=- merge=-",
		"L3b j3: combine=[MIN($1.$2)] merge=group(all=false key=0 key min)",
		"L3c j1: combine=- merge=-",
		"L3c j3: combine=[MAX($1.$2)] merge=group(all=false key=0 key max)",
		"L4 j1: combine=distinct merge=-",
		"L4 j2: combine=[COUNT($1)] merge=group(all=false key=0 key sum)",
		"L5 j1: combine=- merge=-",
		"L6 j1: combine=[SUM($1.$2)] merge=group(all=false key=0 key sum)",
		"L7 j1: combine=[MAX($1.$2) MIN($1.$1)] merge=group(all=false key=0 key max min)",
		"L8 j1: combine=[SUM($1.$1) AVG($1.$2)] merge=-",
		"N1 j1: combine=[SUM($1.$1)] merge=group(all=false key=0 key sum)",
		"N1 j2: combine=[COUNT($1) SUM($1.$1)] merge=group(all=true key=-1 sum sum)",
		"N2 j1: combine=[COUNT($1) SUM($1.$1)] merge=group(all=false key=0 key sum sum)",
		"N2 j2: combine=[SUM($1.$1) SUM($1.$2)] merge=group(all=true key=-1 sum sum)",
		"N3 j1: combine=[MIN($1.$1) MAX($1.$1)] merge=group(all=false key=0 key min max)",
		"N3 j2: combine=[COUNT($1) MAX($1.$2)] merge=group(all=true key=-1 sum max)",
		"N4 j1: combine=[AVG($1.$1) SUM($1.$1) COUNT($1.$1)] merge=group(all=false key=0 key avg(2/3) sum sum)",
		"N4 j2: combine=[COUNT($1) SUM($1.$2) SUM($1.$3)] merge=group(all=true key=-1 sum sum sum)",
	}
	var got []string
	combined, merged := 0, 0
	for _, name := range pigmix.Names() {
		q, err := pigmix.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, job := range compileScript(t, q.Script) {
			seg, err := segments(job.Plan)
			if err != nil {
				t.Fatal(err)
			}
			m := physical.AnalyzeMerge(job.Plan)
			if seg.combine != nil {
				combined++
			}
			if m != nil && m.Kind == physical.MergeGroup {
				merged++
			}
			got = append(got, fmt.Sprintf("%s %s: combine=%s merge=%s", name, job.ID, combineOf(seg), mergeOf(m)))
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("jobs differ; got:\n%s", strings.Join(got, "\n"))
	}
	if len(got) != 38 || combined != 16 || merged != 14 {
		t.Errorf("%d jobs, %d combined, %d group-mergeable; want 38, 16, 14", len(got), combined, merged)
	}
}

// combineOf renders a job's combiner: "-" when none engages.
func combineOf(seg *segmentation) string {
	switch {
	case seg.distinct:
		return "distinct"
	case seg.combine == nil:
		return "-"
	}
	aggs := make([]string, len(seg.combine.aggs))
	for i, a := range seg.combine.aggs {
		aggs[i] = a.String()
	}
	return "[" + strings.Join(aggs, " ") + "]"
}

// mergeOf renders a merge classification: "-" when the plan does not
// merge.
func mergeOf(m *physical.MergeSpec) string {
	switch {
	case m == nil:
		return "-"
	case m.Kind == physical.MergeUnion:
		return "union"
	}
	cols := make([]string, len(m.Cols))
	for i, c := range m.Cols {
		cols[i] = [...]string{"key", "sum", "min", "max", "avg"}[c.Kind]
		if c.Kind == physical.MergeAvg {
			cols[i] += fmt.Sprintf("(%d/%d)", c.SumCol, c.CountCol)
		}
	}
	return fmt.Sprintf("group(all=%t key=%d %s)", m.GroupAll, m.KeyCol, strings.Join(cols, " "))
}
