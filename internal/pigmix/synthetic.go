package pigmix

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/dfs"
	"repro/internal/tuple"
)

// The Section 7.5 synthetic data set: 12 fields. field1–field5 are
// random 20-character strings (for the Project experiment, Figure 16);
// field6–field12 are integers whose cardinalities make an equality
// predicate select the Table 2 percentages (for the Filter experiment,
// Figure 17).

// PathSynthetic is the synthetic data set's location in the DFS.
const PathSynthetic = "synth/data"

// SyntheticSchema is the AS clause for the synthetic data set.
const SyntheticSchema = "field1, field2, field3, field4, field5, field6, field7, field8, field9, field10, field11, field12"

// SyntheticField describes one of the filter fields, mirroring the
// paper's Table 2.
type SyntheticField struct {
	Name string
	// Cardinality is the number of distinct values (the paper lists 1.6
	// for field12, whose two values are skewed 60/40).
	Cardinality float64
	// Selected is the fraction an equality predicate on value 0 keeps.
	Selected float64
}

// SyntheticFields reproduces Table 2.
var SyntheticFields = []SyntheticField{
	{Name: "field6", Cardinality: 200, Selected: 0.005},
	{Name: "field7", Cardinality: 100, Selected: 0.01},
	{Name: "field8", Cardinality: 20, Selected: 0.05},
	{Name: "field9", Cardinality: 10, Selected: 0.10},
	{Name: "field10", Cardinality: 5, Selected: 0.20},
	{Name: "field11", Cardinality: 2, Selected: 0.50},
	{Name: "field12", Cardinality: 1.6, Selected: 0.60},
}

// SyntheticScale sizes the generated file. The paper's instance is 200M
// rows / 40 GB; rows here are scaled down and SimScale restores bytes.
type SyntheticScale struct {
	Rows           int
	TargetSimBytes int64
	TargetRows     int64
}

// DefaultSyntheticScale mirrors the 200M-row, 40 GB instance at 20k
// actual rows.
var DefaultSyntheticScale = SyntheticScale{Rows: 20_000, TargetSimBytes: 40 << 30, TargetRows: 200_000_000}

// GenerateSynthetic writes the synthetic data set and returns its
// actual size in bytes.
func GenerateSynthetic(fs dfs.Backend, sc SyntheticScale, seed int64) (int64, error) {
	r := rand.New(rand.NewSource(seed))
	err := writeRows(fs, PathSynthetic, func(w *tuple.Writer) error {
		for i := 0; i < sc.Rows; i++ {
			row := make(tuple.Tuple, 0, 12)
			for f := 0; f < 5; f++ {
				row = append(row, fillerString(r, 20))
			}
			row = append(row,
				int64(r.Intn(200)), // field6: 0.5%
				int64(r.Intn(100)), // field7: 1%
				int64(r.Intn(20)),  // field8: 5%
				int64(r.Intn(10)),  // field9: 10%
				int64(r.Intn(5)),   // field10: 20%
				int64(r.Intn(2)),   // field11: 50%
				skewedBit(r, 0.60), // field12: 60% zeros
			)
			if err := w.Write(row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return fs.Size(PathSynthetic), nil
}

func skewedBit(r *rand.Rand, pZero float64) int64 {
	if r.Float64() < pZero {
		return 0
	}
	return 1
}

// SyntheticSimScale returns the SimScale mapping the generated file to
// the target simulated volume.
func SyntheticSimScale(fs dfs.Backend, sc SyntheticScale) float64 {
	actual := fs.Size(PathSynthetic)
	if actual <= 0 {
		return 1
	}
	return float64(sc.TargetSimBytes) / float64(actual)
}

// SyntheticRecordScale returns the record scale factor for the
// synthetic instance.
func SyntheticRecordScale(sc SyntheticScale) float64 {
	if sc.Rows <= 0 || sc.TargetRows <= 0 {
		return 1
	}
	return float64(sc.TargetRows) / float64(sc.Rows)
}

// QP builds the Figure 16 query template: project the first k string
// fields, group by them, count. k ranges 1..5; the projected fraction
// of the input grows from ~18% to ~74%.
func QP(k int) Query {
	if k < 1 {
		k = 1
	}
	if k > 5 {
		k = 5
	}
	fields := make([]string, k)
	for i := range fields {
		fields[i] = fmt.Sprintf("field%d", i+1)
	}
	list := strings.Join(fields, ", ")
	name := fmt.Sprintf("QP%d", k)
	return Query{
		Name: name,
		Script: fmt.Sprintf(`
A = load '%s' as (%s);
B = foreach A generate %s;
C = group B by (%s);
D = foreach C generate COUNT(B);
store D into 'out/%s';
`, PathSynthetic, SyntheticSchema, list, list, name),
		Output: "out/" + name,
	}
}

// QF builds the Figure 17 query template: filter on an equality
// predicate over one of field6..field12, group by field1, count.
func QF(field string) Query {
	name := "QF_" + field
	return Query{
		Name: name,
		Script: fmt.Sprintf(`
A = load '%s' as (%s);
B = filter A by %s == 0;
C = group B by field1;
D = foreach C generate COUNT(B);
store D into 'out/%s';
`, PathSynthetic, SyntheticSchema, field, name),
		Output: "out/" + name,
	}
}
