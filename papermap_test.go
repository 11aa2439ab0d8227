package distmura

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goSymbols indexes the declarations of every Go file in a tree: the
// top-level names of each package and the fields and methods of each
// type, keyed by the package clause's name.
type goSymbols struct {
	decls   map[string]map[string]bool            // pkg → top-level name
	members map[string]map[string]map[string]bool // pkg → type → field or method
	files   map[string]bool                       // base names of every file
}

func loadGoSymbols(t *testing.T, root string) *goSymbols {
	t.Helper()
	s := &goSymbols{
		decls:   map[string]map[string]bool{},
		members: map[string]map[string]map[string]bool{},
		files:   map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		s.files[d.Name()] = true
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		s.addFile(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *goSymbols) addFile(f *ast.File) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	if s.decls[pkg] == nil {
		s.decls[pkg] = map[string]bool{}
		s.members[pkg] = map[string]map[string]bool{}
	}
	member := func(typ, name string) {
		if s.members[pkg][typ] == nil {
			s.members[pkg][typ] = map[string]bool{}
		}
		s.members[pkg][typ][name] = true
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				s.decls[pkg][d.Name.Name] = true
			} else if typ := recvTypeName(d.Recv.List[0].Type); typ != "" {
				member(typ, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						s.decls[pkg][n.Name] = true
					}
				case *ast.TypeSpec:
					s.decls[pkg][sp.Name.Name] = true
					var fields *ast.FieldList
					switch tt := sp.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						for _, n := range fld.Names {
							member(sp.Name.Name, n.Name)
						}
						if len(fld.Names) == 0 { // embedded: the field is named by its type
							if typ := recvTypeName(fld.Type); typ != "" {
								member(sp.Name.Name, typ)
							}
						}
					}
				}
			}
		}
	}
}

// recvTypeName returns the type name of a receiver or embedded field
// (T, *T, T[K], pkg.T).
func recvTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return recvTypeName(x.X)
	case *ast.IndexExpr:
		return recvTypeName(x.X)
	case *ast.IndexListExpr:
		return recvTypeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// hasMember reports whether some type named typ — in pkg, or in any
// package when pkg is "" — has a field or method called name.
func (s *goSymbols) hasMember(pkg, typ, name string) bool {
	for p, types := range s.members {
		if (pkg == "" || p == pkg) && types[typ][name] {
			return true
		}
	}
	return false
}

// declared reports whether name is declared anywhere: top level, or as a
// field or method.
func (s *goSymbols) declared(name string) bool {
	for p, names := range s.decls {
		if names[name] {
			return true
		}
		for _, members := range s.members[p] {
			if members[name] {
				return true
			}
		}
	}
	return false
}

// resolve checks one Go identifier or dotted selector: pkg.Name must be
// top level in pkg, pkg.Type.Member and Type.Member a field or method of
// the type, and a bare name declared somewhere.
func (s *goSymbols) resolve(tok string) bool {
	parts := strings.Split(tok, ".")
	_, isPkg := s.decls[parts[0]]
	switch {
	case len(parts) == 1:
		return s.declared(tok)
	case len(parts) == 2 && isPkg:
		return s.decls[parts[0]][parts[1]]
	case len(parts) == 2:
		return s.hasMember("", parts[0], parts[1])
	case len(parts) == 3 && isPkg:
		return s.hasMember(parts[0], parts[1], parts[2])
	}
	return false
}

var (
	codeSpan   = regexp.MustCompile("`([^`]+)`")
	goSelector = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$`)
	repoFile   = regexp.MustCompile(`^[A-Za-z0-9_.-]+\.(go|json|md|mod|sh|tsv|yml)$`)
	repoPath   = regexp.MustCompile(`^[A-Za-z0-9_.-]+(/[A-Za-z0-9_.-]+)*/?$`)
)

// TestPaperMapSymbolsExist keeps docs/paper-map.md pointing at real code:
// every backticked repo path must exist and every backticked Go
// identifier or selector must resolve. Prose and expressions (spaces,
// parentheses, operators, a leading '-') are skipped.
func TestPaperMapSymbolsExist(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "paper-map.md"))
	if err != nil {
		t.Fatal(err)
	}
	syms := loadGoSymbols(t, ".")
	checked := 0
	for _, m := range codeSpan.FindAllStringSubmatch(string(doc), -1) {
		tok := m[1]
		switch {
		case strings.HasPrefix(tok, "-") || strings.ContainsAny(tok, " ()[]{}=<>+*&|!,;:\\"):
			continue
		case strings.Contains(tok, "/"):
			if !repoPath.MatchString(tok) {
				continue
			}
			if _, err := os.Stat(filepath.FromSlash(strings.TrimSuffix(tok, "/"))); err != nil {
				t.Errorf("paper map names path %q, which does not exist", tok)
			}
		case repoFile.MatchString(tok):
			if !syms.files[tok] {
				t.Errorf("paper map names file %q, which does not exist", tok)
			}
		case goSelector.MatchString(tok):
			if !syms.resolve(tok) {
				t.Errorf("paper map names %q, which no Go declaration matches", tok)
			}
		default:
			continue
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no backticked symbol checked: is the paper map empty?")
	}
}
