package exp

import (
	"flag"
	"strings"
	"sync"
	"testing"

	"repro/internal/pigmix"
)

// update rewrites the committed file a test holds its results to
// (testdata/alloc_budget.json, or under the golden tag
// testdata/paper_figures.golden) instead of comparing with it.
var update = flag.Bool("update", false, "rewrite the testdata files the selected tests compare with")

// shrinkScales swaps in tiny instances so experiment tests stay fast,
// restoring the paper scales afterwards.
func shrinkScales(t *testing.T) {
	t.Helper()
	origSmall, origLarge, origSyn := scaleSmall, scaleLarge, synScale
	scaleSmall = pigmix.Scale{Name: "t15", PageViews: 600, TargetSimBytes: 3 << 30, TargetRows: 2_000_000}
	scaleLarge = pigmix.Scale{Name: "t150", PageViews: 2_400, TargetSimBytes: 12 << 30, TargetRows: 8_000_000}
	synScale = pigmix.SyntheticScale{Rows: 1_200, TargetSimBytes: 2 << 30, TargetRows: 6_000_000}
	t.Cleanup(func() {
		scaleSmall, scaleLarge, synScale = origSmall, origLarge, origSyn
	})
}

func TestReportRendering(t *testing.T) {
	r := &Report{
		ID:      "Figure X",
		Title:   "test",
		Columns: []string{"A", "LongColumn"},
	}
	r.AddRow("x", "1")
	r.AddRow("yyyy", "2")
	r.Notes = append(r.Notes, "a note")
	out := r.String()
	for _, want := range []string{"Figure X", "LongColumn", "yyyy", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
}

func TestSibling(t *testing.T) {
	cases := map[string]string{
		"L3": "L3a", "L3a": "L3", "L3b": "L3", "L3c": "L3",
		"L11": "L11a", "L11a": "L11", "L11d": "L11",
	}
	for q, want := range cases {
		if got := sibling(q); got != want {
			t.Errorf("sibling(%s) = %s, want %s", q, got, want)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	shrinkScales(t)
	rep, err := Figure9()
	if err != nil {
		t.Fatalf("Figure9: %v", err)
	}
	if len(rep.Rows) != len(pigmix.VariantSuite) {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), len(pigmix.VariantSuite))
	}
	// Reuse must beat no-reuse on every row (speedup > 1).
	for _, row := range rep.Rows {
		if !(row[3] > "1") && !strings.HasPrefix(row[3], "1.") {
			// speedup rendered as %.2f; anything starting "0." fails
			if strings.HasPrefix(row[3], "0.") {
				t.Errorf("%s: speedup %s < 1", row[0], row[3])
			}
		}
	}
}

func TestStudyShape(t *testing.T) {
	shrinkScales(t)
	st := NewStudy()
	m, err := st.Measure(scaleLarge, 2 /* Aggressive */, "L3")
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if m.Generate <= m.NoReuse {
		t.Errorf("generating sub-jobs should cost more than baseline: %v vs %v", m.Generate, m.NoReuse)
	}
	if m.Reuse >= m.NoReuse {
		t.Errorf("reuse should beat baseline: %v vs %v", m.Reuse, m.NoReuse)
	}
	if m.StoredSimBytes <= 0 || m.InputSimBytes <= 0 {
		t.Errorf("byte accounting: stored=%d input=%d", m.StoredSimBytes, m.InputSimBytes)
	}
	if m.StoredSimBytes >= m.InputSimBytes {
		t.Errorf("stored %d should be far below input %d", m.StoredSimBytes, m.InputSimBytes)
	}
	// Cached: second call must be instant and identical.
	m2, err := st.Measure(scaleLarge, 2, "L3")
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m {
		t.Errorf("cache returned different measurement")
	}
}

func TestTable2Measured(t *testing.T) {
	shrinkScales(t)
	rep, err := Table2()
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if len(rep.Rows) != len(pigmix.SyntheticFields) {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestProjectFilterPoint(t *testing.T) {
	shrinkScales(t)
	over, speedup, pct, err := projectFilterPoint(pigmix.QP(1))
	if err != nil {
		t.Fatalf("projectFilterPoint: %v", err)
	}
	if over <= 1 {
		t.Errorf("overhead = %v, want > 1", over)
	}
	if speedup <= 1 {
		t.Errorf("speedup = %v, want > 1", speedup)
	}
	if pct <= 0 || pct >= 100 {
		t.Errorf("projected pct = %v", pct)
	}
}

// TestRunnersCoverOrder guards Order and Runners against drifting when
// experiments are added: "-run all -parallel N" must cover the same set
// as the serial path.
func TestRunnersCoverOrder(t *testing.T) {
	runners := Runners(nil)
	if len(Order) != len(runners) {
		t.Fatalf("Order has %d experiments, Runners has %d", len(Order), len(runners))
	}
	for _, name := range Order {
		if _, ok := runners[name]; !ok {
			t.Errorf("Order names unknown experiment %q", name)
		}
	}
}

// TestStudyConcurrentMeasure proves the study is shareable across
// goroutines: concurrent Measure calls for one configuration coalesce
// into one run and all observe the identical measurement (figures 10-14
// in the experiments CLI's -parallel mode).
func TestStudyConcurrentMeasure(t *testing.T) {
	shrinkScales(t)
	st := NewStudy()
	const callers = 4
	ms := make([]subjobMeasure, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms[i], errs[i] = st.Measure(scaleLarge, 2 /* Aggressive */, "L3")
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if ms[i] != ms[0] {
			t.Errorf("caller %d observed %+v, caller 0 observed %+v", i, ms[i], ms[0])
		}
	}
}

// TestFigureMShape runs the matcher-scaling experiment on small
// repositories: one row per size, and FigureM itself fails if the
// sequential scan and the signature index ever choose different
// entries (the experiment doubles as a differential check).
func TestFigureMShape(t *testing.T) {
	orig := matcherSizes
	matcherSizes = []int{8, 32}
	t.Cleanup(func() { matcherSizes = orig })
	rep, err := FigureM()
	if err != nil {
		t.Fatalf("FigureM: %v", err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row[1] == "" || row[2] == "" {
			t.Errorf("missing timing cells: %v", row)
		}
	}
}

// TestFigureBShape runs the storage-budget experiment at test scale:
// four rows (unbounded + three policies), every budgeted policy
// converging under the budget (FigureB itself fails otherwise) with at
// least one eviction.
func TestFigureBShape(t *testing.T) {
	shrinkScales(t)
	rep, err := FigureB()
	if err != nil {
		t.Fatalf("FigureB: %v", err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rep.Rows))
	}
	for _, row := range rep.Rows[1:] {
		if row[3] == "0" {
			t.Errorf("policy %s evicted nothing under a halved budget", row[0])
		}
	}
}
