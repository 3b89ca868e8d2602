// Package guardloop flags loops that walk the engine's unbounded hot
// containers — B+Tree leaf chains, posting lists, storage row slices —
// without consulting the per-query guard. The Guard.Step /
// check-every-N discipline is what lets a canceled or timed-out query
// stop mid-scan (PR 1); a new scan loop that forgets it reintroduces
// the class of hang the guard exists to prevent. Deliberately unbounded
// loops (bounded kernels, DDL builds) carry an
// `//xqvet:unbounded-ok <reason>` annotation.
package guardloop

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/xqdb/xqdb/internal/analyzers/analysis"
	"github.com/xqdb/xqdb/internal/analyzers/typeutil"
)

const (
	postingsPath = "github.com/xqdb/xqdb/internal/postings"
	storagePath  = "github.com/xqdb/xqdb/internal/storage"
)

// Analyzer is the guardloop check.
var Analyzer = &analysis.Analyzer{
	Name: "guardloop",
	Doc: "flags loops over B+Tree leaf chains, posting lists (postings.List " +
		"or postings.NodeList), or storage rows ([]storage.Row) — ranged, or " +
		"indexed up to len(x) — whose body " +
		"never consults the query " +
		"guard (Guard.Step/Check/Items or a check-every-N callback); annotate " +
		"deliberately unguarded loops with //xqvet:unbounded-ok <reason>",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch loop := n.(type) {
			case *ast.RangeStmt:
				what := subject(pass, loop.X)
				if what == "" {
					what = subject(pass, lenArg(pass, loop.X)) // for i := range len(x)
				}
				if what != "" && !consultsGuard(loop.Body) {
					pass.Reportf(loop.Pos(),
						"loop over %s does not consult the guard; call Guard.Step/Check/Items in the body or annotate //xqvet:unbounded-ok <reason>", what)
				}
			case *ast.ForStmt:
				if isLeafChainWalk(loop) {
					if !consultsGuard(loop.Body) {
						pass.Reportf(loop.Pos(),
							"B+Tree leaf-chain walk does not consult the guard; call Guard.Step/Check/Items in the body or annotate //xqvet:unbounded-ok <reason>")
					}
				} else if what := subject(pass, lenBound(pass, loop.Cond)); what != "" && !consultsGuard(loop.Body) {
					pass.Reportf(loop.Pos(),
						"loop over %s does not consult the guard; call Guard.Step/Check/Items in the body or annotate //xqvet:unbounded-ok <reason>", what)
				}
			}
			return true
		})
	}
	return nil
}

// subject classifies what a loop walks, returning a human-readable
// description when it is one of the guarded containers.
func subject(pass *analysis.Pass, x ast.Expr) string {
	if x == nil {
		return ""
	}
	tv, ok := pass.TypesInfo.Types[x]
	if !ok {
		return ""
	}
	switch {
	case typeutil.IsNamed(tv.Type, postingsPath, "List"):
		return "a posting list (postings.List)"
	case typeutil.IsNamed(tv.Type, postingsPath, "NodeList"):
		return "a node posting list (postings.NodeList)"
	case typeutil.SliceOfNamed(tv.Type, storagePath, "Row"):
		return "storage rows ([]storage.Row)"
	}
	return ""
}

// lenArg returns x when e is the builtin call len(x), else nil.
func lenArg(pass *analysis.Pass, e ast.Expr) ast.Expr {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return nil
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || id.Name != "len" {
		return nil
	}
	return call.Args[0]
}

// lenBound returns x when an index loop's condition compares against
// len(x), as in `for i := 0; i < len(x); i++`, else nil.
func lenBound(pass *analysis.Pass, cond ast.Expr) ast.Expr {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	if x := lenArg(pass, bin.Y); x != nil {
		return x
	}
	return lenArg(pass, bin.X)
}

// isLeafChainWalk matches the `for n != nil { ...; n = n.next }` and
// `for ; n != nil; n = n.next` shapes of a linked-leaf traversal.
func isLeafChainWalk(loop *ast.ForStmt) bool {
	if advancesNext(loop.Post) {
		return true
	}
	for _, stmt := range loop.Body.List {
		if advancesNext(stmt) {
			return true
		}
	}
	return false
}

// advancesNext reports whether stmt has the shape `x = x.next`.
func advancesNext(stmt ast.Stmt) bool {
	assign, ok := stmt.(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	lhs, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	sel, ok := assign.Rhs[0].(*ast.SelectorExpr)
	if !ok || !strings.EqualFold(sel.Sel.Name, "next") {
		return false
	}
	base, ok := sel.X.(*ast.Ident)
	return ok && base.Name == lhs.Name
}

// consultsGuard reports whether the loop body (including nested blocks
// and closures) contains a guard consultation: a call to a method named
// Step, Check, or Items (the *guard.Guard surface and the btree.Visitor
// check hook), or a call through a function value whose name contains
// "check" (the check-every-N callback pattern).
func consultsGuard(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch name := typeutil.CalleeName(call); {
		case name == "Step" || name == "Check" || name == "Items":
			found = true
		case strings.Contains(strings.ToLower(name), "check"):
			found = true
		}
		return !found
	})
	return found
}
