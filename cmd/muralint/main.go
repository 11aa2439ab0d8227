// Command muralint is the repository's invariant checker. It runs the
// analyzer under internal/analysis (locksend) over the packages the
// patterns name:
//
//	go run ./cmd/muralint ./...
//
// It loads and type-checks the packages itself via `go list -export`.
// Exit status is 2 when any diagnostic is reported (matching go vet), 1
// on operational errors, 0 when clean.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/analysis/locksend"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		fmt.Fprintf(os.Stderr, "usage: %s package-pattern ...\n", filepath.Base(os.Args[0]))
		os.Exit(1)
	}
	os.Exit(run(patterns))
}

func run(patterns []string) int {
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "muralint:", err)
		return 1
	}
	bad := false
	for _, p := range pkgs {
		diags, err := analysis.Run([]*analysis.Analyzer{locksend.Analyzer}, p.Fset, p.Files, p.Pkg, p.Info)
		if err != nil {
			fmt.Fprintln(os.Stderr, "muralint:", err)
			return 1
		}
		for _, d := range diags {
			bad = true
			fmt.Println(d.String())
		}
	}
	if bad {
		return 2
	}
	return 0
}
