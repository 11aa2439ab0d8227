package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// medianIQR returns the median of xs and the distance between its first
// and third quartiles (exclusive method, as Python's
// statistics.quantiles(xs, n=4)); the spread of fewer than two values is 0.
func medianIQR(xs []float64) (med, iqr float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	quantile := func(q float64) float64 {
		pos := q * float64(n+1)
		j := int(pos)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	if n == 1 {
		return s[0], 0
	}
	return quantile(0.5), quantile(0.75) - quantile(0.25)
}

// compareFiles prints, per workload and gated metric, how much worse b's
// median is than a's, relative to a's, against the metric's bound. It
// returns 1 when any bound is exceeded. A pair whose own run-to-run spread
// is wider than the bound is reported as unresolved, not as unchanged.
func compareFiles(pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return compareResults(a, b)
}

func compareResults(a, b *resultFile) int {
	if a.Seed != b.Seed || a.Scale != b.Scale || a.Seconds != b.Seconds {
		fmt.Printf("note: the files differ in settings (seed %d/%d, scale %s/%s, seconds %g/%g)\n",
			a.Seed, b.Seed, a.Scale, b.Scale, a.Seconds, b.Seconds)
	}
	status := 0
	fmt.Printf("%-16s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "worse by", "bound", "verdict")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil {
			fmt.Printf("%-16s missing from a result file\n", w.name)
			status = 1
			continue
		}
		if wb.Failed > wa.Failed {
			fmt.Printf("%-16s %-18s %14d %14d %9s %7s  REGRESSION\n", w.name, "failed ops", wa.Failed, wb.Failed, "", "0")
			status = 1
		}
		row := func(m metricSpec, xa, xb []float64) {
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Printf("%-16s %-18s missing from a result file\n", w.name, m.Name)
				status = 1
				return
			}
			ma, sa := medianIQR(xa)
			mb, sb := medianIQR(xb)
			worse := 0.0
			switch {
			case ma == mb:
			case ma == 0:
				worse = math.Inf(1)
			case m.Better == "lower":
				worse = (mb - ma) / ma
			default:
				worse = (ma - mb) / ma
			}
			verdict := "ok"
			switch {
			case ma != 0 && math.Max(sa, sb)/math.Abs(ma) > m.Bound:
				verdict = "unresolved (spread wider than bound)"
			case worse > m.Bound:
				verdict = "REGRESSION"
				status = 1
			}
			fmt.Printf("%-16s %-18s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n", w.name, m.Name, ma, mb, 100*worse, 100*m.Bound, verdict)
		}
		for _, m := range endToEnd {
			row(m, wa.EndToEnd[m.Name], wb.EndToEnd[m.Name])
		}
		for _, m := range diagnostics {
			if m.Name == "query_ms_p99" && w.name != p99Workload {
				continue
			}
			row(m, wa.Diag[m.Name], wb.Diag[m.Name])
		}
	}
	return status
}
