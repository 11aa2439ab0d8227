package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// LoadedPackage is one target package, parsed and type-checked, ready
// for Run.
type LoadedPackage struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// listPackage mirrors the subset of `go list -json` output the loader
// needs: source files for the packages under analysis, and export-data
// locations for everything they import.
type listPackage struct {
	Dir         string
	ImportPath  string
	Name        string
	Export      string
	GoFiles     []string
	CgoFiles    []string
	Imports     []string
	ImportMap   map[string]string
	DepOnly     bool
	Standard    bool
	Incomplete  bool
	Error       *listPackageError
	DepsErrors  []*listPackageError
	TestGoFiles []string
}

type listPackageError struct {
	Pos string
	Err string
}

// Load resolves patterns (e.g. "./...") to packages and type-checks
// each one. Dependencies are consumed as compiler export data — the
// same unified format the active toolchain writes — via
// `go list -export`, so no source outside the target patterns is
// parsed and no network or module download is needed.
func Load(dir string, patterns ...string) ([]*LoadedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exportFile := make(map[string]string) // import path -> export data file
	var targets []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list decode: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exportFile[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			cp := p
			targets = append(targets, &cp)
		}
	}

	var out []*LoadedPackage
	for _, t := range targets {
		if t.Name == "" || len(t.GoFiles)+len(t.CgoFiles) == 0 {
			continue
		}
		lp, err := typecheckListed(t, exportFile)
		if err != nil {
			return nil, err
		}
		out = append(out, lp)
	}
	return out, nil
}

func typecheckListed(p *listPackage, exportFile map[string]string) (*LoadedPackage, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range append(append([]string{}, p.GoFiles...), p.CgoFiles...) {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(p.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		files = append(files, f)
	}

	imp := exportImporter(fset, func(path string) (string, bool) {
		if mapped, ok := p.ImportMap[path]; ok {
			path = mapped
		}
		f, ok := exportFile[path]
		return f, ok
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", "amd64"),
		Error:    func(error) {}, // collect via returned err; keep going for soft errors
	}
	pkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", p.ImportPath, err)
	}
	return &LoadedPackage{ImportPath: p.ImportPath, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// exportImporter returns a types.Importer that reads gc export data
// located by lookup. lookup receives a source-level import path and
// returns the export data file for the (possibly remapped) package.
func exportImporter(fset *token.FileSet, lookup func(path string) (string, bool)) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if path == "unsafe" {
			// The gc importer special-cases unsafe before lookup; this
			// branch is only defensive.
			return nil, fmt.Errorf("unsafe has no export data")
		}
		f, ok := lookup(path)
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}
