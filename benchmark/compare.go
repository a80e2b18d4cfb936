package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// compareFiles prints, per workload × end-to-end metric, the base (A)
// and the change (B), their ratio, the bound and a verdict, and returns
// the exit code: 1 if any metric is worse. A and B are result files or
// comma-separated sets of them (several runs of one commit); a set's
// value is its median and its spread the distance between its
// quartiles as a share of the median.
func compareFiles(w io.Writer, a, b string) int {
	setA, err := loadRuns(a)
	if err != nil {
		fmt.Fprintln(w, "benchmark: -compare:", err)
		return 2
	}
	setB, err := loadRuns(b)
	if err != nil {
		fmt.Fprintln(w, "benchmark: -compare:", err)
		return 2
	}
	fmt.Fprintf(w, "%-15s %-28s %12s %12s %8s %7s %8s  %s\n",
		"workload", "metric", "A (base)", "B", "B/A", "bound", "spread", "verdict")
	worse := 0
	for _, sp := range workloads {
		for _, d := range endToEnd {
			va, vb := setA[sp.name][d.Name], setB[sp.name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			spread := max(iqrShare(va), iqrShare(vb))
			v := verdict(d, va, vb, spread)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-15s %-28s %12.6g %12.6g %8.4f %6.1f%% %7.1f%%  %s\n",
				sp.name, d.Name, ma, mb, ratio(mb, ma), 100*d.Bound, 100*spread, v)
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d metric(s) worse than the base by more than their bound\n", worse)
		return 1
	}
	return 0
}

// verdict applies the benchmark's rule: worse when B's median is worse
// than A's by more than the bound; unresolved when the run-to-run
// spread is wider than the bound, unless every run of B reads better
// than every run of A (ok) or worse than every run of A beyond the
// bound (worse).
func verdict(d metricDef, va, vb []float64, spread float64) string {
	// worsening is how much worse y is than x, as a share of x.
	worsening := func(x, y float64) float64 {
		if d.Better == higher {
			return ratio(x-y, x)
		}
		return ratio(y-x, x)
	}
	beyond := worsening(median(va), median(vb)) > d.Bound
	if spread <= d.Bound {
		if beyond {
			return "worse"
		}
		return "ok"
	}
	allBetter, allWorse := true, true
	for _, x := range va {
		for _, y := range vb {
			if worsening(x, y) >= 0 {
				allBetter = false
			}
			if worsening(x, y) <= d.Bound {
				allWorse = false
			}
		}
	}
	switch {
	case allBetter:
		return "ok"
	case allWorse && beyond:
		return "worse"
	}
	return "unresolved"
}

// loadRuns reads a comma-separated list of result files into
// workload → metric → one value per run.
func loadRuns(list string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, path := range strings.Split(list, ",") {
		set, err := readResults(strings.TrimSpace(path))
		if err != nil {
			return nil, err
		}
		for name, r := range set.Workloads {
			if out[name] == nil {
				out[name] = map[string][]float64{}
			}
			for k, v := range r.EndToEnd {
				out[name][k] = append(out[name][k], v)
			}
		}
	}
	return out, nil
}

// iqrShare is the distance between the first and third quartile of vs
// as a share of their median, with the quartiles of Python's
// statistics.quantiles(vs, n=4) — the driver's spread. Zero for fewer
// than two values.
func iqrShare(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(q(3)-q(1), median(s))
}
