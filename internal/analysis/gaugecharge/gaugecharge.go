// Package gaugecharge enforces the memory-governance contract on the
// distributed execution path: inside internal/physical, a locally
// constructed core.Evaluator must have its Gauge field assigned before the
// first Eval/RunFixpoint/NewFixpointLoop call, otherwise every intermediate it
// materializes is invisible to admission control. (The row containers
// themselves need no check: core.NewAccumulator and core.BuildJoinIndex
// take the gauge as an argument, so a caller cannot forget it.)
//
// Other packages (tests, benchkit setup, the root engine which owns
// the gauges) are out of scope: the point is that per-row allocation
// on the distributed execution path is always attributed.
package gaugecharge

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "gaugecharge",
	Doc:  "hot-path evaluators must have their MemGauge attached before evaluating",
	Run:  run,
}

// scoped reports whether pkgPath is the physical-plan package.
func scoped(pkgPath string) bool {
	return strings.HasSuffix(pkgPath, "physical")
}

func run(pass *analysis.Pass) error {
	if !scoped(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.SourceFiles() {
		ast.Inspect(file, func(n ast.Node) bool {
			// FuncDecl only: checkEvaluatorGauge descends into nested
			// function literals itself, so visiting them here would
			// scan their blocks twice.
			if fn, ok := n.(*ast.FuncDecl); ok && fn.Body != nil {
				checkEvaluatorGauge(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// coreCallee returns the function name if call targets the core
// package, else "".
func coreCallee(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	if !strings.HasSuffix(fn.Pkg().Path(), "core") {
		return ""
	}
	return fn.Name()
}

// evalMethods are the Evaluator entry points that materialize rows — or,
// for NewFixpointLoop, seed X — and therefore require a gauge to be
// attached first.
var evalMethods = map[string]bool{
	"Eval": true, "RunFixpoint": true, "EvalPhiDelta": true, "NewFixpointLoop": true,
}

// checkEvaluatorGauge scans each statement list for the pattern
//
//	ev := core.NewEvaluator(...)   (or ev = ...)
//	... ev.Eval(...) ...           // before any ev.Gauge = ... assignment
//
// and reports the premature Eval. The scan is linear per list; an
// assignment in a nested branch counts (conservatively) as attaching
// the gauge.
func checkEvaluatorGauge(pass *analysis.Pass, body *ast.BlockStmt) {
	var scanList func(stmts []ast.Stmt)
	scanList = func(stmts []ast.Stmt) {
		// pending[obj] = true while obj holds a fresh un-gauged evaluator.
		pending := map[types.Object]bool{}
		var visit func(n ast.Node)
		gaugeAssigned := func(s ast.Stmt) types.Object {
			as, ok := s.(*ast.AssignStmt)
			if !ok {
				return nil
			}
			for _, lhs := range as.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Gauge" {
					if id, ok := sel.X.(*ast.Ident); ok {
						return pass.ObjectOf(id)
					}
				}
			}
			return nil
		}
		visit = func(n ast.Node) {
			ast.Inspect(n, func(m ast.Node) bool {
				if _, ok := m.(*ast.FuncLit); ok {
					return false
				}
				if s, ok := m.(ast.Stmt); ok {
					if obj := gaugeAssigned(s); obj != nil {
						delete(pending, obj)
					}
				}
				if call, ok := m.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && evalMethods[sel.Sel.Name] {
						if id, ok := sel.X.(*ast.Ident); ok {
							if obj := pass.ObjectOf(id); obj != nil && pending[obj] {
								pass.Reportf(call.Pos(), "%s.%s before %s.Gauge is set: rows materialized here bypass the memory budget", id.Name, sel.Sel.Name, id.Name)
								delete(pending, obj)
							}
						}
					}
				}
				return true
			})
		}
		for _, s := range stmts {
			if as, ok := s.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
				if call, ok := as.Rhs[0].(*ast.CallExpr); ok && coreCallee(pass, call) == "NewEvaluator" && len(as.Lhs) >= 1 {
					if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
						if obj := pass.TypesInfo.Defs[id]; obj != nil {
							pending[obj] = true
							continue
						}
						if obj := pass.TypesInfo.Uses[id]; obj != nil {
							pending[obj] = true
							continue
						}
					}
				}
			}
			visit(s)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BlockStmt); ok {
			scanList(b.List)
		}
		return true
	})
}
