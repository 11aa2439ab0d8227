// Package analysis is a dependency-free reimplementation of the core of
// golang.org/x/tools/go/analysis: just enough driver surface to write
// muralint's invariant analyzer against the familiar Analyzer/Pass API
// without pulling x/tools into the module.
//
// The one analyzer under this directory, locksend, encodes an invariant
// no runtime test catches: a blocking channel operation under a mutex.
// Cancellation of long-running loops and resource lifetimes
// (accumulators, evaluators, gauge charges, spill mappings) are checked
// at runtime by tests instead. `go run ./cmd/muralint ./...` loads and
// type-checks the packages (see load.go) and ends at Run below.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the muralint
	// command line. By convention it is a single lowercase word.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run applies the analyzer to one type-checked package.
	Run func(*Pass) error
}

// A Pass presents one type-checked package to one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// A Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// SourceFiles yields the package's non-test files. The invariants are
// production-code contracts; test files routinely construct and abandon
// resources on purpose (e.g. leak regression tests), so every analyzer
// iterates SourceFiles rather than Files.
func (p *Pass) SourceFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		name := p.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// TypeOf returns the static type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// Run applies every analyzer to one type-checked package and returns
// the diagnostics sorted by position. Analyzer errors (not violations —
// driver bugs) are returned as an error.
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path(), err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return diags, nil
}
