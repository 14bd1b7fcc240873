package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerDebugLog keeps disabled debug logging free on the dispatch
// spine. A (*slog.Logger).Debug call boxes its arguments into `any`
// before the logger learns that its level is Info, so a Debug call
// made per task allocates per task whether or not anything is written:
// a third of batch256's allocations once came from three such calls.
// In service, forwarder, endpoint, manager and worker code, a Debug
// call with any non-constant argument must sit in the body of an
// `if <logger>.Enabled(ctx, slog.LevelDebug)` on the same logger.
var AnalyzerDebugLog = &Analyzer{
	Name: "debuglog",
	Doc:  "Debug calls with non-constant arguments on the dispatch spine sit inside an Enabled(…, slog.LevelDebug) check",
	Run:  runDebugLog,
}

var debugLogPackages = []string{
	"funcx/internal/service",
	"funcx/internal/forwarder",
	"funcx/internal/endpoint",
	"funcx/internal/manager",
	"funcx/internal/worker",
}

func runDebugLog(pass *Pass) {
	if !pkgPathIn(pass.Path, debugLogPackages...) {
		return
	}
	for _, file := range pass.Files {
		// stack holds the nodes enclosing the one being visited.
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, ok := loggerMethod(pass.Info, call, "Debug")
			if !ok || constantArgs(pass.Info, call) || debugGuarded(pass.Info, stack, recv) {
				return true
			}
			pass.Reportf(call.Pos(), "%s.Debug boxes its arguments even when debug is off; call it inside if %s.Enabled(ctx, slog.LevelDebug)", recv, recv)
			return true
		})
	}
}

// loggerMethod reports whether call is the named method of a
// *slog.Logger and returns the receiver expression as written.
func loggerMethod(info *types.Info, call *ast.CallExpr, name string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "log/slog" {
		return "", false
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv == nil || types.TypeString(recv.Type(), nil) != "*log/slog.Logger" {
		return "", false
	}
	return types.ExprString(sel.X), true
}

// constantArgs reports whether every argument of call is a constant:
// such a call boxes nothing that has to be allocated.
func constantArgs(info *types.Info, call *ast.CallExpr) bool {
	if call.Ellipsis.IsValid() {
		return false
	}
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; !ok || tv.Value == nil {
			return false
		}
	}
	return true
}

// debugGuarded reports whether the innermost node of stack lies in the
// body of an if statement whose condition asks recv.Enabled(…,
// slog.LevelDebug), alone or as a conjunct.
func debugGuarded(info *types.Info, stack []ast.Node, recv string) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if ok && stack[i+1] == ifs.Body && asksDebug(info, ifs.Cond, recv) {
			return true
		}
	}
	return false
}

func asksDebug(info *types.Info, cond ast.Expr, recv string) bool {
	switch e := cond.(type) {
	case *ast.ParenExpr:
		return asksDebug(info, e.X, recv)
	case *ast.BinaryExpr:
		return e.Op == token.LAND && (asksDebug(info, e.X, recv) || asksDebug(info, e.Y, recv))
	case *ast.CallExpr:
		on, ok := loggerMethod(info, e, "Enabled")
		if !ok || on != recv || len(e.Args) != 2 {
			return false
		}
		c := constOf(info, e.Args[1])
		return c != nil && c.Pkg() != nil && c.Pkg().Path() == "log/slog" && c.Name() == "LevelDebug"
	}
	return false
}
