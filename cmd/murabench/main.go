// Command murabench regenerates every figure of the Dist-µ-RA paper's
// evaluation section (§V) as a text table, on synthetic laptop-scale
// datasets (README "Benchmarks and CI" gives the scale substitutions).
//
// Usage:
//
//	murabench -experiment fig10                # one figure
//	murabench -experiment all                  # everything (slow)
//	murabench -experiment fig15 -query Q24     # cost-model validation
//	murabench -experiment queries              # print the workload tables
//	murabench -scale test                      # small fast sizes
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/benchkit"
)

func main() {
	var (
		experiment = flag.String("experiment", "all",
			"fig5 | fig9 | fig10 | fig11 | fig12 | fig13 | fig14 | fig15 | queries | all")
		scaleName = flag.String("scale", "default", "default | test")
		queryID   = flag.String("query", "Q24", "query for fig15")
		workers   = flag.Int("workers", 0, "override worker count")
		timeout   = flag.Duration("timeout", 0, "override per-query timeout")
	)
	flag.Parse()

	scale := benchkit.DefaultScale()
	if *scaleName == "test" {
		scale = benchkit.TestScale()
	}
	if *workers > 0 {
		scale.Workers = *workers
	}
	if *timeout > 0 {
		scale.Timeout = *timeout
	}

	run := func(name string, f func() *benchkit.Table) {
		start := time.Now()
		t := f()
		t.Print(os.Stdout)
		fmt.Printf("  [%s completed in %s]\n", name, time.Since(start).Round(time.Millisecond))
	}

	selected := strings.Split(*experiment, ",")
	want := func(name string) bool {
		for _, s := range selected {
			if s == name || s == "all" {
				return true
			}
		}
		return false
	}

	if want("queries") {
		printQueries()
	}
	if want("fig5") {
		run("fig5-left", func() *benchkit.Table { return benchkit.Fig5Left(scale) })
		run("fig5-right", func() *benchkit.Table { return benchkit.Fig5Right(scale) })
	}
	if want("fig9") {
		run("fig9", func() *benchkit.Table { return benchkit.Fig9(scale) })
	}
	if want("fig10") {
		run("fig10", func() *benchkit.Table { return benchkit.Fig10(scale) })
	}
	if want("fig11") {
		run("fig11", func() *benchkit.Table { return benchkit.Fig11(scale) })
	}
	if want("fig12") {
		run("fig12", func() *benchkit.Table { return benchkit.Fig12(scale) })
	}
	if want("fig13") {
		run("fig13", func() *benchkit.Table { return benchkit.Fig13(scale) })
	}
	if want("fig14") {
		run("fig14", func() *benchkit.Table { return benchkit.Fig14(scale) })
	}
	if want("fig15") {
		run("fig15", func() *benchkit.Table { return benchkit.Fig15(scale, *queryID) })
	}
}

// printQueries reproduces the workload tables (Fig. 7 and Fig. 8).
func printQueries() {
	fmt.Println("\n== Fig. 7: Yago queries ==")
	for _, q := range benchkit.YagoQueries {
		fmt.Printf("%-4s %-72s %v\n", q.ID, q.Text, q.Classes)
	}
	fmt.Println("\n== Fig. 8: Uniprot queries ==")
	for _, q := range benchkit.UniprotQueries {
		fmt.Printf("%-4s %-72s %v\n", q.ID, q.Text, q.Classes)
	}
}
