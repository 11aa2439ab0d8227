// Package closecheck reports acquired resources that are not released
// on every path: core.Accumulator, core.Evaluator, core.FixpointLoop,
// core.JoinIndex and repro.Rows values obtained from a constructor must
// reach Close (or
// escape to an owner) on all paths out of the acquiring function,
// including early error returns — the fd/gauge-leak class that has
// bitten the spill and sub-result paths before.
//
// A value is considered safely handed off ("escaped") when it is
// returned, stored in a field/slice/map, passed to another call, or
// captured by a goroutine or non-defer closure: ownership analysis is
// intraprocedural. Within the acquiring function, the checker walks a
// small abstract interpretation over the statement list: a path that
// hits `return` while the resource is still open is a diagnostic. The
// idiomatic constructor error guard (`v, err := New...; if err != nil
// { return ... }` immediately after the acquisition) is understood:
// constructors return a nil resource alongside a non-nil error.
package closecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "closecheck",
	Doc:  "acquired Accumulator/Evaluator/FixpointLoop/JoinIndex/Rows must be Closed on all paths",
	Run:  run,
}

// trackedTypes are the owned-resource types, keyed by package path
// suffix and type name. Matching is by suffix so the analyzer works
// both in-module ("repro/internal/core") and in analysistest fixtures
// that re-declare the shapes under a fixture module path.
var trackedTypes = []struct{ pkgSuffix, name string }{
	{"internal/core", "Accumulator"},
	{"internal/core", "Evaluator"},
	{"internal/core", "FixpointLoop"},
	{"internal/core", "JoinIndex"},
	{"repro", "Rows"},
}

func isTrackedType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	for _, tt := range trackedTypes {
		if obj.Name() == tt.name && (path == tt.pkgSuffix || strings.HasSuffix(path, "/"+tt.pkgSuffix) || strings.HasSuffix(path, tt.pkgSuffix)) {
			return true
		}
	}
	return false
}

// isConstructor reports whether call is an acquisition: a call to a
// New*/Build* function returning a tracked type, or one of the Rows-
// producing engine entry points. Plain method calls that merely return
// a borrowed tracked pointer (e.g. an evaluator's cached index) are
// not acquisitions.
func isConstructor(pass *analysis.Pass, call *ast.CallExpr) bool {
	name := calleeName(call)
	if name == "" {
		return false
	}
	if strings.HasPrefix(name, "New") || strings.HasPrefix(name, "Build") {
		return true
	}
	switch name {
	case "Query", "QueryTerm", "Run", "run":
		// Rows producers on Engine/Stmt; only counted when the result
		// type is tracked (checked by the caller).
		return true
	}
	return false
}

func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.SourceFiles() {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				c := &checker{pass: pass}
				c.scanList(body.List, nil)
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
}

// status of one tracked value along the current path.
type status int

const (
	stOpen status = iota
	stClosed
	stEscaped
)

// scanList finds acquisitions in stmts (recursively, but not crossing
// into nested function literals — those are scanned as functions of
// their own by run) and flows each one forward. conts holds the
// remaining statements of each enclosing list, innermost first, so a
// value acquired inside a branch is still tracked through the code
// after that branch.
func (c *checker) scanList(stmts []ast.Stmt, conts [][]ast.Stmt) {
	for i, s := range stmts {
		rest := stmts[i+1:]
		if as, ok := s.(*ast.AssignStmt); ok {
			c.checkAcquire(as, rest, conts)
		}
		if es, ok := s.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok && isConstructor(c.pass, call) && isTrackedType(typeOrFirstResult(c.pass, call)) {
				c.pass.Reportf(call.Pos(), "result of %s is dropped without Close", calleeName(call))
			}
		}
		sub := append([][]ast.Stmt{rest}, conts...)
		for _, inner := range innerLists(s) {
			c.scanList(inner, sub)
		}
	}
}

// innerLists returns the nested statement lists of s, not descending
// into function literals.
func innerLists(s ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch t := s.(type) {
	case *ast.BlockStmt:
		out = append(out, t.List)
	case *ast.IfStmt:
		out = append(out, t.Body.List)
		if t.Else != nil {
			out = append(out, []ast.Stmt{t.Else})
		}
	case *ast.ForStmt:
		out = append(out, t.Body.List)
	case *ast.RangeStmt:
		out = append(out, t.Body.List)
	case *ast.SwitchStmt:
		for _, cl := range t.Body.List {
			out = append(out, cl.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range t.Body.List {
			out = append(out, cl.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, cl := range t.Body.List {
			out = append(out, cl.(*ast.CommClause).Body)
		}
	case *ast.LabeledStmt:
		out = append(out, []ast.Stmt{t.Stmt})
	}
	return out
}

// checkAcquire flows a tracked acquisition `v := New...()` (or
// `v, err := ...`) through the rest of the function.
func (c *checker) checkAcquire(as *ast.AssignStmt, rest []ast.Stmt, conts [][]ast.Stmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isConstructor(c.pass, call) {
		return
	}
	var v types.Object
	var name string
	var errObj types.Object
	for _, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := c.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = c.pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		if isTrackedType(obj.Type()) {
			v, name = obj, id.Name
		} else if isErrorType(obj.Type()) {
			errObj = obj
		}
	}
	if v == nil {
		return
	}

	f := &flow{c: c, v: v, name: name, errObj: errObj, acquire: as.Pos(), guardOK: true}
	st, terminated := f.stmts(rest, stOpen)
	for _, cont := range conts {
		if st != stOpen || terminated {
			break
		}
		st, terminated = f.stmts(cont, st)
	}
	if st == stOpen && !terminated {
		c.pass.Reportf(as.Pos(), "%s is never closed", name)
	}
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// flow walks statements tracking one value.
type flow struct {
	c       *checker
	v       types.Object
	name    string
	errObj  types.Object
	acquire token.Pos
	// guardOK is true only for the statement immediately following the
	// acquisition: an `if err != nil { return ... }` there is the
	// constructor's own failure guard, where the resource is nil.
	guardOK bool
}

func (f *flow) stmts(list []ast.Stmt, st status) (status, bool) {
	for _, s := range list {
		if st != stOpen {
			return st, false
		}
		var term bool
		st, term = f.stmt(s, st)
		f.guardOK = false
		if term {
			return st, true
		}
	}
	return st, false
}

func (f *flow) stmt(s ast.Stmt, st status) (status, bool) {
	switch t := s.(type) {
	case *ast.DeferStmt:
		if f.isCloseCall(t.Call) || f.closesInFuncLit(t.Call) {
			return stClosed, false
		}
		if f.uses(t.Call) {
			return stEscaped, false
		}
		return st, false

	case *ast.ExprStmt:
		if call, ok := t.X.(*ast.CallExpr); ok && f.isCloseCall(call) {
			return stClosed, false
		}
		if f.uses(t.X) {
			return stEscaped, false
		}
		return st, false

	case *ast.ReturnStmt:
		// Any mention of v in the results — `return v`, `return
		// v.Collect()` — hands the value (or a consuming view of it) to
		// the caller; ownership is theirs.
		for _, r := range t.Results {
			if f.mentions(r) {
				return stEscaped, true
			}
		}
		if st == stOpen {
			f.c.pass.Reportf(t.Pos(), "%s is not closed on this return path", f.name)
		}
		return st, true

	case *ast.AssignStmt:
		// `err = v.Close()` / `res, err := v.Collect()` release v even
		// though the call sits on an assignment's right-hand side.
		for _, rhs := range t.Rhs {
			if f.containsClose(rhs) {
				return stClosed, false
			}
		}
		for _, lhs := range t.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && f.objOf(id) == f.v {
				// Reassigned while tracking: stop (alias analysis would
				// be needed to keep going).
				return stEscaped, false
			}
		}
		for _, rhs := range t.Rhs {
			if f.uses(rhs) {
				return stEscaped, false
			}
		}
		for _, lhs := range t.Lhs {
			if f.uses(lhs) {
				return stEscaped, false
			}
		}
		return st, false

	case *ast.IfStmt:
		guard := f.guardOK
		if t.Init != nil && f.containsClose(t.Init) {
			// `if err := v.Close(); err != nil { ... }`
			st = stClosed
		} else if f.usesExprEscape(t.Init) || f.uses(t.Cond) {
			return stEscaped, false
		}
		if guard && f.isErrGuard(t.Cond) {
			// Constructor failure guard: the branch runs only when the
			// resource is nil; skip it entirely.
			if t.Else == nil {
				if terminates(t.Body) {
					return st, false
				}
			}
			// Unusual guard shapes fall through to the general case.
		}
		bodySt, bodyTerm := f.stmts(t.Body.List, st)
		elseSt, elseTerm := st, false
		switch e := t.Else.(type) {
		case *ast.BlockStmt:
			elseSt, elseTerm = f.stmts(e.List, st)
		case *ast.IfStmt:
			elseSt, elseTerm = f.stmt(e, st)
		case nil:
			// fallthrough path keeps st
		}
		return merge2(bodySt, bodyTerm, elseSt, elseTerm, st)

	case *ast.ForStmt:
		if f.usesExprEscape(t.Init) || f.uses(t.Cond) || f.usesExprEscape(t.Post) {
			return stEscaped, false
		}
		bodySt, _ := f.stmts(t.Body.List, st)
		return afterLoop(st, bodySt), false

	case *ast.RangeStmt:
		if f.uses(t.X) {
			return stEscaped, false
		}
		bodySt, _ := f.stmts(t.Body.List, st)
		return afterLoop(st, bodySt), false

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return f.branchy(s, st)

	case *ast.BlockStmt:
		return f.stmts(t.List, st)

	case *ast.LabeledStmt:
		return f.stmt(t.Stmt, st)

	case *ast.BranchStmt:
		// break/continue/goto: path leaves this list. Conservatively no
		// report (the target may still close), but stop scanning.
		return st, true

	case *ast.GoStmt:
		if f.uses(t.Call) {
			return stEscaped, false
		}
		return st, false

	default:
		if f.usesStmt(s) {
			return stEscaped, false
		}
		return st, false
	}
}

// branchy handles switch/type-switch/select uniformly: every clause is
// an independent path; a missing default adds an implicit empty path.
func (f *flow) branchy(s ast.Stmt, st status) (status, bool) {
	var bodies [][]ast.Stmt
	hasDefault := false
	check := func(e ast.Expr) bool { return e != nil && f.uses(e) }
	switch t := s.(type) {
	case *ast.SwitchStmt:
		if check(t.Tag) {
			return stEscaped, false
		}
		for _, cl := range t.Body.List {
			c := cl.(*ast.CaseClause)
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				if check(e) {
					return stEscaped, false
				}
			}
			bodies = append(bodies, c.Body)
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range t.Body.List {
			c := cl.(*ast.CaseClause)
			if c.List == nil {
				hasDefault = true
			}
			bodies = append(bodies, c.Body)
		}
	case *ast.SelectStmt:
		for _, cl := range t.Body.List {
			c := cl.(*ast.CommClause)
			if c.Comm == nil {
				hasDefault = true
			} else if f.usesStmt(c.Comm) {
				return stEscaped, false
			}
			bodies = append(bodies, c.Body)
		}
	}
	if !hasDefault {
		bodies = append(bodies, nil)
	}
	out, term := st, true
	first := true
	for _, b := range bodies {
		bSt, bTerm := f.stmts(b, st)
		if bTerm {
			continue
		}
		term = false
		if first {
			out, first = bSt, false
			continue
		}
		out = mergeSt(out, bSt)
	}
	if term {
		return st, true
	}
	return out, false
}

func merge2(aSt status, aTerm bool, bSt status, bTerm bool, orig status) (status, bool) {
	switch {
	case aTerm && bTerm:
		return orig, true
	case aTerm:
		return bSt, false
	case bTerm:
		return aSt, false
	default:
		return mergeSt(aSt, bSt), false
	}
}

func mergeSt(a, b status) status {
	if a == stEscaped || b == stEscaped {
		return stEscaped
	}
	if a == stClosed && b == stClosed {
		return stClosed
	}
	return stOpen
}

// afterLoop merges the zero-iteration path with the body's outcome.
func afterLoop(before, body status) status {
	if body == stEscaped {
		return stEscaped
	}
	if body == stClosed {
		// close-inside-loop of an outer value: treat as closed rather
		// than flag the (rare, deliberate) pattern.
		return stClosed
	}
	return before
}

// terminates reports whether a block always leaves the function (its
// last statement is a return, panic, log.Fatal-style call, or
// os.Exit).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				if fn.Name == "panic" {
					return true
				}
			case *ast.SelectorExpr:
				if strings.HasPrefix(fn.Sel.Name, "Fatal") || fn.Sel.Name == "Exit" {
					return true
				}
			}
		}
	}
	return false
}

func (f *flow) objOf(id *ast.Ident) types.Object {
	if o := f.c.pass.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return f.c.pass.TypesInfo.Defs[id]
}

func (f *flow) isErrGuard(cond ast.Expr) bool {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return false
	}
	id, ok := bin.X.(*ast.Ident)
	if !ok {
		return false
	}
	if f.errObj == nil || f.objOf(id) != f.errObj {
		return false
	}
	nilId, ok := bin.Y.(*ast.Ident)
	return ok && nilId.Name == "nil"
}

// isCloseCall matches v.Close() and v.Collect() — Collect is the
// cursor's documented drain-and-close consume API.
func (f *flow) isCloseCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Close" && sel.Sel.Name != "Collect") {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && f.objOf(id) == f.v
}

// containsClose reports whether the subtree releases v via a
// Close/Collect call (outside nested function literals).
func (f *flow) containsClose(root ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok && f.isCloseCall(c) {
			found = true
		}
		return !found
	})
	return found
}

// mentions reports whether the subtree refers to v at all (unlike uses,
// benign method-call/field references count).
func (f *flow) mentions(root ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && f.objOf(id) == f.v {
			found = true
		}
		return !found
	})
	return found
}

// closesInFuncLit reports whether call is `func() { ... v.Close() ... }()`.
func (f *flow) closesInFuncLit(call *ast.CallExpr) bool {
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && f.isCloseCall(c) {
			found = true
		}
		return !found
	})
	return found
}

// uses reports whether e mentions v in an ownership-relevant way:
// anything except calling a method on it, reading a field from it, or
// comparing it against nil.
func (f *flow) uses(e ast.Expr) bool {
	if e == nil {
		return false
	}
	return f.usesNode(e)
}

func (f *flow) usesExprEscape(s ast.Stmt) bool {
	return s != nil && f.usesStmt(s)
}

func (f *flow) usesStmt(s ast.Stmt) bool {
	return s != nil && f.usesNode(s)
}

func (f *flow) usesNode(root ast.Node) bool {
	escaped := false
	var parents []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			parents = parents[:len(parents)-1]
			return false
		}
		if escaped {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && f.objOf(id) == f.v {
			if !f.benignUse(parents) {
				escaped = true
			}
		}
		parents = append(parents, n)
		return true
	})
	return escaped
}

// benignUse decides whether an occurrence of v (whose ancestor chain is
// parents, nearest last) is ownership-neutral.
func (f *flow) benignUse(parents []ast.Node) bool {
	if len(parents) == 0 {
		return false
	}
	p := parents[len(parents)-1]
	switch t := p.(type) {
	case *ast.SelectorExpr:
		// v.M(...) or v.field: method call or field read. A selector in
		// call-fun position is a method call on v; a bare selector is a
		// field read. Both leave ownership with the caller. (Method
		// values `f := v.Close` are rare enough to accept the leak of
		// precision.)
		return true
	case *ast.BinaryExpr:
		// comparisons (v == nil, v != nil) are reads.
		op := t.Op
		return op == token.EQL || op == token.NEQ
	}
	return false
}

func typeOrFirstResult(pass *analysis.Pass, call *ast.CallExpr) types.Type {
	t := pass.TypeOf(call)
	if tup, ok := t.(*types.Tuple); ok && tup.Len() > 0 {
		return tup.At(0).Type()
	}
	return t
}
