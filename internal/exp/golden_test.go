//go:build golden

package exp

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The paper golden runs every experiment at the paper's scales (about
// two minutes on two cores), so it is kept out of `go test ./...`:
//
//	go test -tags golden ./internal/exp -run TestPaperFiguresGolden
//	go test -tags golden ./internal/exp -run TestPaperFiguresGolden -update
var update = flag.Bool("update", false, "rewrite testdata/paper_figures.golden")

var goldenPath = filepath.Join("..", "..", "testdata", "paper_figures.golden")

// TestPaperFiguresGolden holds Summary over Order to the committed
// report, byte for byte. Every cell is Equation 1 time or a count,
// except Figure M's wall-clock columns, which countedOnly drops.
func TestPaperFiguresGolden(t *testing.T) {
	runners := Runners(NewStudy())
	reports := make([]*Report, len(Order))
	for i, name := range Order {
		rep, err := runners[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reports[i] = countedOnly(rep)
	}
	got := Summary(reports)
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("paper figures differ from %s:\n--- got\n%s\n--- want\n%s", goldenPath, got, want)
	}
}

// wallClock names Figure M's timed columns; TestFigureMShape checks them.
var wallClock = map[string]bool{"Scan(us/job)": true, "Indexed(us/job)": true, "Speedup": true}

// countedOnly returns rep without Figure M's wall-clock columns and
// notes; every other report is returned as is.
func countedOnly(rep *Report) *Report {
	if rep.ID != "Figure M" {
		return rep
	}
	out := &Report{ID: rep.ID, Title: rep.Title}
	var keep []int
	for i, c := range rep.Columns {
		if !wallClock[c] {
			keep = append(keep, i)
			out.Columns = append(out.Columns, c)
		}
	}
	for _, row := range rep.Rows {
		cells := make([]string, len(keep))
		for j, i := range keep {
			cells[j] = row[i]
		}
		out.AddRow(cells...)
	}
	return out
}
