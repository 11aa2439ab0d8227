// Package ctxloop flags unbounded loops that never look at their
// cancellation signal. In the engine's long-running paths — semi-naive
// fixpoint iteration, ParallelDrainCtx, mailbox demux, the Watch wake-up
// loop — a `for {}` or `for cond {}` loop that neither selects on a
// done channel nor polls ctx.Err()/sess.Err() keeps running after the
// query is cancelled, pinning goroutines and gauge budget.
//
// The check is scoped to functions that demonstrably have a
// cancellation signal in hand (a context.Context parameter, a receiver
// or parameter carrying a Ctx field, or a handle with Err/Done/Context
// methods) and to condition-only loops; `for range` and three-clause
// counted loops are bounded by construction and exempt.
package ctxloop

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxloop",
	Doc:  "unbounded loops in cancellable functions must check ctx/stop",
	Run:  run,
}

// scoped limits the check to the packages with long-running loops.
func scoped(pkgPath string) bool {
	for _, suf := range []string{"core", "physical", "cluster"} {
		if strings.HasSuffix(pkgPath, suf) {
			return true
		}
	}
	// The root engine package (watch wake-up, subresult completer).
	return !strings.Contains(pkgPath, "/")
}

func run(pass *analysis.Pass) error {
	if !scoped(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.SourceFiles() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil && cancellable(pass, fn.Recv, fn.Type) {
					checkLoops(pass, fn.Body)
				}
			case *ast.FuncLit:
				// Function literals inherit cancellability from their
				// captured environment; approximate by checking their
				// own parameters only (the enclosing FuncDecl pass
				// already walked this body if it was cancellable).
				if fn.Body != nil && cancellable(pass, nil, fn.Type) {
					checkLoops(pass, fn.Body)
				}
			}
			return true
		})
	}
	return nil
}

// cancellable reports whether the function has a cancellation signal
// among its receiver and parameters.
func cancellable(pass *analysis.Pass, recv *ast.FieldList, ftype *ast.FuncType) bool {
	var fields []*ast.Field
	if recv != nil {
		fields = append(fields, recv.List...)
	}
	if ftype.Params != nil {
		fields = append(fields, ftype.Params.List...)
	}
	for _, f := range fields {
		t := pass.TypeOf(f.Type)
		if t == nil {
			continue
		}
		if carriesCancel(t) {
			return true
		}
	}
	return false
}

func carriesCancel(t types.Type) bool {
	if isContext(t) {
		return true
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	// A handle with Err() error, Done() <-chan, or Context() methods.
	for i := 0; i < named.NumMethods(); i++ {
		switch named.Method(i).Name() {
		case "Err", "Done", "Context":
			return true
		}
	}
	// A struct carrying a context field (e.g. core.Evaluator.Ctx).
	if st, ok := named.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if isContext(st.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "context") && obj.Name() == "Context"
}

func checkLoops(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		// Only unbounded shapes: `for {}` and `for cond {}`. Counted
		// loops and ranges terminate on their own.
		if loop.Init != nil || loop.Post != nil {
			return true
		}
		if isCursorLoop(loop) {
			return true
		}
		if !checksCancellation(loop) {
			pass.Reportf(loop.Pos(), "unbounded loop never checks ctx/stop cancellation")
		}
		return true
	})
}

// isCursorLoop recognizes the bounded cursor idiom `for r.Next() {}`:
// the condition is a call to a method named Next, which walks an
// already-materialized result and terminates on its own.
func isCursorLoop(loop *ast.ForStmt) bool {
	if loop.Cond == nil {
		return false
	}
	call, ok := loop.Cond.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Next"
}

// checksCancellation reports whether the loop (condition or body)
// contains any recognizable look at a cancellation signal: a select, a
// channel receive, a call to an Err/Done/CtxErr-style probe, or a call
// whose name advertises ctx-awareness (e.g. ParallelDrainCtx).
func checksCancellation(loop *ast.ForStmt) bool {
	found := false
	check := func(n ast.Node) bool {
		if found {
			return false
		}
		switch t := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if t.Op.String() == "<-" {
				found = true
			}
		case *ast.CallExpr:
			name := ""
			switch fn := t.Fun.(type) {
			case *ast.Ident:
				name = fn.Name
			case *ast.SelectorExpr:
				name = fn.Sel.Name
			}
			switch {
			case name == "Err" || name == "Done" || name == "CtxErr" || name == "Context":
				found = true
			case strings.HasSuffix(name, "Ctx"):
				found = true
			}
		}
		return !found
	}
	if loop.Cond != nil {
		ast.Inspect(loop.Cond, check)
	}
	ast.Inspect(loop.Body, check)
	return found
}
