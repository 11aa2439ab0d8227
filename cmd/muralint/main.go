// Command muralint is the repository's invariant multichecker. It runs
// the two analyzers under internal/analysis (ctxloop, locksend) in two
// modes:
//
//	go run ./cmd/muralint ./...          # direct: load, check, report
//	go vet -vettool=$(muralint) ./...    # unitchecker: driven by cmd/go
//
// Direct mode loads and type-checks packages itself via `go list
// -export`. Vettool mode speaks the cmd/go unitchecker protocol: cmd/go
// invokes the tool once per package with a JSON .cfg file describing
// sources and export data, plus -V=full / -flags probe invocations.
// Exit status is 2 when any diagnostic is reported (matching go vet), 1
// on operational errors, 0 when clean.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/ctxloop"
	"repro/internal/analysis/locksend"
)

func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxloop.Analyzer,
		locksend.Analyzer,
	}
}

func main() {
	progname := filepath.Base(os.Args[0])
	args := os.Args[1:]

	// cmd/go probe invocations (vettool protocol).
	var patterns []string
	jsonOut := false
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "-V":
			// cmd/go derives the vet tool ID from this line; embed a
			// content hash of the binary so its result cache invalidates
			// whenever the analyzers change.
			fmt.Printf("%s version 1.0-%s\n", progname, selfHash())
			return
		case a == "-flags":
			// cmd/go asks which flags the tool supports; we take none
			// beyond the protocol basics.
			fmt.Println("[]")
			return
		case a == "-json":
			jsonOut = true
		case strings.HasPrefix(a, "-c="):
			// context lines; accepted, unused
		case strings.HasPrefix(a, "-"):
			// Unknown flag from a newer cmd/go: ignore rather than die
			// mid-vet.
		default:
			patterns = append(patterns, a)
		}
	}

	if len(patterns) == 1 && strings.HasSuffix(patterns[0], ".cfg") {
		os.Exit(unitcheck(patterns[0], jsonOut))
	}
	if len(patterns) == 0 {
		fmt.Fprintf(os.Stderr, "usage: %s [package pattern ...] | %s <unit>.cfg\n", progname, progname)
		os.Exit(1)
	}
	os.Exit(direct(patterns))
}

// direct is standalone mode: `go run ./cmd/muralint ./...`.
func direct(patterns []string) int {
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "muralint:", err)
		return 1
	}
	bad := false
	for _, p := range pkgs {
		diags, err := analysis.Run(analyzers(), p.Fset, p.Files, p.Pkg, p.Info)
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

// vetConfig mirrors the fields of the unitchecker Config JSON that
// cmd/go writes next to each package's build artifacts.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck is vettool mode: analyze the single package described by
// cfgFile and honor the facts-file contract.
func unitcheck(cfgFile string, jsonOut bool) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "muralint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "muralint: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	// cmd/go caches the facts ("vetx") output file and fails the vet run
	// if the tool does not produce it; we carry no cross-package facts,
	// so an empty file satisfies the contract.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "muralint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, "muralint:", err)
			return 1
		}
		files = append(files, f)
	}

	compImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			importPath = mapped
		}
		if importPath == "unsafe" {
			return types.Unsafe, nil
		}
		return compImp.Import(importPath)
	})

	pkg, info, err := analysis.Typecheck(cfg.ImportPath, fset, files, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "muralint:", err)
		return 1
	}

	diags, err := analysis.Run(analyzers(), fset, files, pkg, info)
	if err != nil {
		fmt.Fprintln(os.Stderr, "muralint:", err)
		return 1
	}
	if len(diags) == 0 {
		return 0
	}
	if jsonOut {
		// go vet -json: {"pkg": {"analyzer": [{posn, message}]}}
		type jsonDiag struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		byAnalyzer := map[string][]jsonDiag{}
		for _, d := range diags {
			byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], jsonDiag{Posn: d.Pos.String(), Message: d.Message})
		}
		out := map[string]map[string][]jsonDiag{cfg.ID: byAnalyzer}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		enc.Encode(out)
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
	}
	return 2
}

// selfHash returns a short content hash of the running executable, used
// as the tool's version for cmd/go's vet cache key.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
