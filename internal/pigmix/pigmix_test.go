package pigmix

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dfs"
	"repro/internal/logical"
	"repro/internal/mrcompile"
	"repro/internal/piglatin"
	"repro/internal/tuple"
)

func readRows(t *testing.T, fs *dfs.FS, path string) []tuple.Tuple {
	t.Helper()
	var out []tuple.Tuple
	for _, f := range fs.List(path) {
		data, err := fs.ReadFile(f)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line != "" {
				out = append(out, tuple.DecodeText(line))
			}
		}
	}
	return out
}

func TestGenerateDeterministic(t *testing.T) {
	fs1, fs2 := dfs.New(), dfs.New()
	n1, err := Generate(fs1, TinyScale, 42)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	n2, err := Generate(fs2, TinyScale, 42)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if n1 != n2 {
		t.Errorf("sizes differ: %d vs %d", n1, n2)
	}
	d1, _ := fs1.ReadFile(PathPageViews + "/part-00000")
	d2, _ := fs2.ReadFile(PathPageViews + "/part-00000")
	if string(d1) != string(d2) {
		t.Errorf("same seed produced different data")
	}
	fs3 := dfs.New()
	Generate(fs3, TinyScale, 43)
	d3, _ := fs3.ReadFile(PathPageViews + "/part-00000")
	if string(d1) == string(d3) {
		t.Errorf("different seeds produced identical data")
	}
}

func TestGenerateShapes(t *testing.T) {
	fs := dfs.New()
	if _, err := Generate(fs, TinyScale, 1); err != nil {
		t.Fatalf("Generate: %v", err)
	}
	pv := readRows(t, fs, PathPageViews)
	if len(pv) != TinyScale.PageViews {
		t.Fatalf("page_views rows = %d", len(pv))
	}
	for _, r := range pv[:10] {
		if len(r) != 9 {
			t.Fatalf("page_views arity = %d: %v", len(r), r)
		}
	}
	users := readRows(t, fs, PathUsers)
	if len(users) != NumUsers+NumExtraUsers {
		t.Errorf("users rows = %d", len(users))
	}
	power := readRows(t, fs, PathPowerUsers)
	if len(power) != NumPowerUsers {
		t.Errorf("power_users rows = %d", len(power))
	}
	wr := readRows(t, fs, PathWiderow)
	if len(wr) != WiderowRows || len(wr[0]) != 10 {
		t.Errorf("widerow shape = %d rows × %d cols", len(wr), len(wr[0]))
	}
}

func TestUserDimensionFixedAcrossScales(t *testing.T) {
	distinctUsers := func(sc Scale) int {
		fs := dfs.New()
		if _, err := Generate(fs, sc, 7); err != nil {
			t.Fatalf("Generate: %v", err)
		}
		seen := map[string]bool{}
		for _, r := range readRows(t, fs, PathPageViews) {
			if s, ok := r[0].(string); ok {
				seen[s] = true
			}
		}
		return len(seen)
	}
	small := distinctUsers(Scale{Name: "s", PageViews: 5_000})
	big := distinctUsers(Scale{Name: "x", PageViews: 50_000})
	// A 10× bigger instance must not have remotely 10× more users: the
	// dimension saturates near NumUsers (the property behind the
	// paper's scale-dependent overhead/speedup shapes).
	if float64(big) > 1.6*float64(small) {
		t.Errorf("user dimension grew with scale: %d -> %d", small, big)
	}
	if big > NumUsers {
		t.Errorf("distinct users %d exceeds pool %d", big, NumUsers)
	}
}

func TestSimScaleFor(t *testing.T) {
	fs := dfs.New()
	Generate(fs, TinyScale, 1)
	scale := SimScaleFor(fs, TinyScale)
	got := float64(fs.Size(PathPageViews)) * scale
	want := float64(TinyScale.TargetSimBytes)
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("SimScaleFor: simulated size %g, want %g", got, want)
	}
}

func TestAllQueriesCompile(t *testing.T) {
	for _, name := range Names() {
		q, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%s): %v", name, err)
		}
		script, err := piglatin.Parse(q.Script)
		if err != nil {
			t.Errorf("%s: parse: %v", name, err)
			continue
		}
		lp, err := logical.Build(script)
		if err != nil {
			t.Errorf("%s: build: %v", name, err)
			continue
		}
		if _, err := mrcompile.Compile(lp, mrcompile.Options{TempPrefix: "tmp/" + name, DefaultReducers: 2}); err != nil {
			t.Errorf("%s: compile: %v", name, err)
		}
	}
}

func TestQueryJobCounts(t *testing.T) {
	wantJobs := map[string]int{
		"L2":  1, // join
		"L3":  2, // join + group
		"L4":  2, // distinct + group
		"L5":  1, // cogroup
		"L6":  1, // group
		"L7":  1,
		"L8":  1,
		"L11": 3, // distinct, distinct, union+distinct
	}
	for name, want := range wantJobs {
		q, _ := Get(name)
		script, _ := piglatin.Parse(q.Script)
		lp, err := logical.Build(script)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wf, err := mrcompile.Compile(lp, mrcompile.Options{TempPrefix: "tmp/" + name, DefaultReducers: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(wf.Jobs) != want {
			t.Errorf("%s: %d jobs, want %d", name, len(wf.Jobs), want)
		}
	}
}

func TestL11DependencyShape(t *testing.T) {
	q, _ := Get("L11")
	script, _ := piglatin.Parse(q.Script)
	lp, _ := logical.Build(script)
	wf, err := mrcompile.Compile(lp, mrcompile.Options{TempPrefix: "tmp/l11", DefaultReducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := wf.TopoJobs()
	last := jobs[len(jobs)-1]
	if len(last.DependsOn) != 2 {
		t.Errorf("final L11 job depends on %v, want two jobs", last.DependsOn)
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("L99"); err == nil {
		t.Errorf("unknown query should error")
	}
}

func TestSyntheticTable2Selectivities(t *testing.T) {
	fs := dfs.New()
	sc := SyntheticScale{Rows: 30_000, TargetSimBytes: 1 << 30}
	if _, err := GenerateSynthetic(fs, sc, 11); err != nil {
		t.Fatalf("GenerateSynthetic: %v", err)
	}
	rows := readRows(t, fs, PathSynthetic)
	if len(rows) != sc.Rows {
		t.Fatalf("rows = %d", len(rows))
	}
	// Column offsets: field6 is index 5.
	for fi, f := range SyntheticFields {
		col := 5 + fi
		zeros := 0
		for _, r := range rows {
			if v, ok := r[col].(int64); ok && v == 0 {
				zeros++
			}
		}
		got := float64(zeros) / float64(len(rows))
		if math.Abs(got-f.Selected) > f.Selected*0.25+0.005 {
			t.Errorf("%s: selectivity %0.4f, want ≈%0.4f", f.Name, got, f.Selected)
		}
	}
}

// tinySynthetic keeps the synthetic-data tests fast.
var tinySynthetic = SyntheticScale{Rows: 1_500, TargetSimBytes: 1 << 30, TargetRows: 5_000_000}

func TestSyntheticStringFields(t *testing.T) {
	fs := dfs.New()
	GenerateSynthetic(fs, tinySynthetic, 3)
	rows := readRows(t, fs, PathSynthetic)
	for c := 0; c < 5; c++ {
		s, ok := rows[0][c].(string)
		if !ok || len(s) != 20 {
			t.Errorf("field%d = %v, want 20-char string", c+1, rows[0][c])
		}
	}
}

func TestQPQFTemplatesCompile(t *testing.T) {
	for k := 1; k <= 5; k++ {
		q := QP(k)
		script, err := piglatin.Parse(q.Script)
		if err != nil {
			t.Fatalf("QP(%d): %v", k, err)
		}
		if _, err := logical.Build(script); err != nil {
			t.Fatalf("QP(%d) build: %v", k, err)
		}
	}
	for _, f := range SyntheticFields {
		q := QF(f.Name)
		script, err := piglatin.Parse(q.Script)
		if err != nil {
			t.Fatalf("QF(%s): %v", f.Name, err)
		}
		if _, err := logical.Build(script); err != nil {
			t.Fatalf("QF(%s) build: %v", f.Name, err)
		}
	}
}

func TestQPProjectionFractionGrows(t *testing.T) {
	// The byte fraction projected by QP(k) must grow with k, from
	// roughly 18% to roughly 74% as in the paper.
	fs := dfs.New()
	GenerateSynthetic(fs, tinySynthetic, 5)
	rows := readRows(t, fs, PathSynthetic)
	total := 0
	proj := make([]int, 6)
	for _, r := range rows {
		total += len(tuple.EncodeText(r)) + 1
		for k := 1; k <= 5; k++ {
			proj[k] += len(tuple.EncodeText(r[:k])) + 1
		}
	}
	prev := 0.0
	for k := 1; k <= 5; k++ {
		frac := float64(proj[k]) / float64(total)
		if frac <= prev {
			t.Errorf("QP(%d) fraction %0.2f not increasing", k, frac)
		}
		prev = frac
	}
	if first := float64(proj[1]) / float64(total); first > 0.30 {
		t.Errorf("QP(1) fraction %0.2f, want small (~0.18)", first)
	}
	if last := float64(proj[5]) / float64(total); last < 0.55 {
		t.Errorf("QP(5) fraction %0.2f, want large (~0.74)", last)
	}
}
