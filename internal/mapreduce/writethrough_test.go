package mapreduce

import (
	"reflect"
	"testing"

	"repro/internal/dfs"
	"repro/internal/physical"
	"repro/internal/pigmix"
	"repro/internal/tuple"
)

// TestWriteThroughEqualsDecode: every dataset a job writes through to
// the batch cache holds, part for part, exactly the batch a fresh
// decode of the part file builds. It runs the PigMix core suite and
// jobs that emit what the text codec retypes: float sums and averages
// with integral values, CONCAT results that read as numbers, empty
// strings (alone in a row, too), and nested bags — over one input
// whose strings hold commas and brackets (a bag holding one goes
// through its text) and one whose strings do not.
func TestWriteThroughEqualsDecode(t *testing.T) {
	fs := dfs.New()
	if _, err := pigmix.Generate(fs, pigmix.TinyScale, 7); err != nil {
		t.Fatal(err)
	}
	writeDataset(t, fs, "wt/split",
		tuple.Tuple{"u1", 1.5, "12", "a,b"},
		tuple.Tuple{"u1", 3.5, "007", nil},
		tuple.Tuple{"u2", 2.25, "1e", "5"},
		tuple.Tuple{"u2", 0.75, "(1,2)", "x)"},
		tuple.Tuple{"u3", 0.1, "-", "{(y}"},
		tuple.Tuple{"u3", 0.2, nil, "3"},
		tuple.Tuple{"u4", -0.5, "+Inf", ""},
		tuple.Tuple{"u4", 0.5, "NaN", "\t"},
	)
	writeDataset(t, fs, "wt/plain",
		tuple.Tuple{"u1", 1.5, "12", "a"},
		tuple.Tuple{"u1", 3.5, "-", nil},
		tuple.Tuple{"u2", 2.25, "1e", "5"},
		tuple.Tuple{"u2", 0.75, "+Inf", "x y"},
		tuple.Tuple{"u3", 0.1, "NaN", ""},
	)
	var scripts []string
	for _, name := range pigmix.CoreSuite {
		q, err := pigmix.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		scripts = append(scripts, q.Script)
	}
	for _, in := range []string{"wt/split", "wt/plain"} {
		load := "A = load '" + in + "' as (user, amount, code, note);\n"
		scripts = append(scripts,
			load+`G = group A by user;
S = foreach G generate group, SUM(A.amount), AVG(A.amount);
store S into '`+in+`/agg';`,
			load+`B = foreach A generate CONCAT(code, note), CONCAT(code, '0'), LOWER(note), user;
store B into '`+in+`/concat';`,
			load+`B = foreach A generate LOWER(note);
store B into '`+in+`/empty';`,
			load+`B = foreach A generate user, amount * 2, CONCAT(code, '0'), LOWER(note);
G = group B by user;
store G into '`+in+`/groups';`,
			load+`B = foreach A generate LOWER(note);
G = group B all;
store G into '`+in+`/all';`,
			load+`B = filter A by amount > 0.3;
store B into '`+in+`/filtered';`,
		)
	}

	cfg := DefaultConfig()
	cfg.MaxCachedBatchBytes = 1 << 30
	eng := New(fs, cfg)
	checked := 0
	for _, src := range scripts {
		for _, job := range compileScript(t, src) {
			if _, err := runJob(eng, job); err != nil {
				t.Fatalf("%s: %v", job.ID, err)
			}
			for _, op := range job.Plan.Ops() {
				if op.Kind != physical.KStore {
					continue
				}
				ds := eng.cache.Get(fs, op.Path)
				if ds == nil {
					t.Fatalf("%s: %s was not written through", job.ID, op.Path)
				}
				for i, f := range ds.files {
					data, err := fs.ReadFile(f)
					if err != nil {
						t.Fatal(err)
					}
					want, err := tuple.DecodeTextBatch(data)
					if err != nil {
						t.Fatal(err)
					}
					if got := ds.batches[i]; !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: cached %s\n got %+v\nwant %+v (the decode of %q)", job.ID, f, got, want, data)
					}
					checked++
				}
			}
		}
	}
	if checked < len(scripts) {
		t.Fatalf("checked only %d written parts", checked)
	}
}
