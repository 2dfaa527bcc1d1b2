// Package locksafe forbids holding a mutex across a blocking
// operation on HarDTAPE's hot paths. The fleet gateway and the
// Hypervisor core serve every user session; a sync.Mutex held across
// a channel send, a bundle execution, or network I/O turns one slow
// backend into fleet-wide head-of-line blocking (the failover paths
// of PR 1 are the motivating surface). The interpreter's shared
// code-analysis cache (internal/evm) is under the same rule: its
// RWMutex sits on every frame construction, so blocking under it
// stalls every HEVM core at once. Deliberate serialization — a
// lock whose entire purpose is to serialize a non-concurrent-safe
// client — must say so with an annotation.
//
// The check is a source-order scan per function, not a CFG: a Lock()
// earlier in the function body with no intervening Unlock() on the
// same expression counts as held. Deferred Unlocks keep the lock held
// to function end. Function literals are skipped (their schedule is
// not the enclosing function's), as are selects with a default
// clause (non-blocking).
//
// Escape hatches (reason required):
//
//	//hardtape:locksafe-ok reason   — on the flagged line, or on the
//	                                  function's doc comment to waive
//	                                  the whole function
package locksafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hardtape/internal/analysis"
)

// Analyzer flags blocking operations under a held mutex.
var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc: "no mutex held across channel operations, bundle execution, " +
		"or network I/O in hot-path packages (core, fleet, oram, node, channel, hevm, evm)",
	Run: run,
}

// scopeElems are the hot-path packages the check covers.
var scopeElems = map[string]bool{
	"channel": true,
	"core":    true,
	"evm":     true,
	"fleet":   true,
	"hevm":    true,
	"node":    true,
	"oram":    true,
}

// blockingCalls are method/function names that block on external
// progress: bundle execution, sync, network and protocol I/O.
var blockingCalls = map[string]bool{
	"Accept":           true,
	"ApplyTransaction": true,
	"Dial":             true,
	"DialServer":       true,
	"Execute":          true,
	"ExecuteContext":   true,
	"FreeSlots":        true,
	"PreExecute":       true,
	"ReadFull":         true,
	"ReadMessage":      true,
	"Serve":            true,
	"ServeConn":        true,
	"ServeListener":    true,
	"Sleep":            true,
	"Status":           true,
	"Sync":             true,
	"VerifyAll":        true,
	"Wait":             true,
	"WriteMessage":     true,
}

func run(pass *analysis.Pass) (any, error) {
	if !inScope(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ann := analysis.ParseAnnotations(pass.Fset, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if analysis.FuncAllowed(pass.Fset, fn, "locksafe-ok") {
				continue
			}
			w := &walker{pass: pass, ann: ann, held: make(map[string]token.Pos)}
			w.walk(fn.Body)
		}
	}
	return nil, nil
}

func inScope(path string) bool {
	for _, elem := range strings.Split(path, "/") {
		if scopeElems[elem] {
			return true
		}
	}
	return false
}

// walker scans one function body in source order.
type walker struct {
	pass *analysis.Pass
	ann  *analysis.Annotations
	// held maps a mutex expression (printed) to its Lock position.
	held map[string]token.Pos
	// selectComms marks channel operations that are select comm
	// clauses — reported (or not) at the select, not individually.
	selectComms map[ast.Node]bool
	// inDefer marks that the walk is inside a defer statement.
	inDefer bool
}

func (w *walker) walk(n ast.Node) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.FuncLit:
			// A literal's body runs on its own schedule.
			return false
		case *ast.DeferStmt:
			w.visitDefer(v)
			return false
		case *ast.GoStmt:
			// The spawned call's args evaluate now, body runs later.
			for _, arg := range v.Call.Args {
				w.walk(arg)
			}
			return false
		case *ast.SelectStmt:
			w.visitSelect(v)
			return false
		case *ast.CallExpr:
			w.visitCall(v)
			return true
		case *ast.SendStmt:
			if !w.selectComms[v] {
				w.report(v.Pos(), "channel send")
			}
			return true
		case *ast.UnaryExpr:
			if v.Op == token.ARROW && !w.selectComms[v] {
				w.report(v.Pos(), "channel receive")
			}
			return true
		case *ast.RangeStmt:
			if w.isChannelRange(v) {
				w.report(v.Pos(), "range over channel")
			}
			return true
		}
		return true
	})
}

// visitDefer handles `defer mu.Unlock()` (lock stays held to return,
// which is fine by itself) and other deferred calls (not blocking
// now).
func (w *walker) visitDefer(d *ast.DeferStmt) {
	// Deferred Unlock does NOT release for the scan: everything after
	// it in source order still runs under the lock.
	// Other deferred work is out of line; skip it.
}

// visitSelect reports a blocking select (no default) under a lock and
// then scans the clause bodies.
func (w *walker) visitSelect(s *ast.SelectStmt) {
	blocking := true
	if w.selectComms == nil {
		w.selectComms = make(map[ast.Node]bool)
	}
	for _, clause := range s.Body.List {
		cc := clause.(*ast.CommClause)
		if cc.Comm == nil {
			blocking = false // default clause
			continue
		}
		w.selectComms[cc.Comm] = true
		ast.Inspect(cc.Comm, func(n ast.Node) bool {
			if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				w.selectComms[u] = true
			}
			return true
		})
	}
	if blocking {
		w.report(s.Pos(), "blocking select")
	}
	for _, clause := range s.Body.List {
		for _, stmt := range clause.(*ast.CommClause).Body {
			w.walk(stmt)
		}
	}
}

// visitCall tracks Lock/Unlock state and reports blocking calls.
func (w *walker) visitCall(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if w.isMutexMethod(sel) {
		expr := types.ExprString(sel.X)
		switch name {
		case "Lock", "RLock":
			w.held[expr] = call.Pos()
		case "Unlock", "RUnlock":
			delete(w.held, expr)
		}
		return
	}
	if blockingCalls[name] {
		w.report(call.Pos(), name+"()")
	}
}

// isMutexMethod reports whether the selector resolves to one of the
// sync mutex methods (covering embedded mutexes: the promoted method
// object still belongs to package sync, and only Mutex/RWMutex export
// Lock/Unlock/RLock/RUnlock there).
func (w *walker) isMutexMethod(sel *ast.SelectorExpr) bool {
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return false
	}
	selection, ok := w.pass.TypesInfo.Selections[sel]
	if !ok {
		return false
	}
	obj := selection.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// isChannelRange reports whether a range statement iterates a channel.
func (w *walker) isChannelRange(r *ast.RangeStmt) bool {
	tv, ok := w.pass.TypesInfo.Types[r.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// report emits one finding if a lock is held and no waiver applies.
func (w *walker) report(pos token.Pos, what string) {
	if len(w.held) == 0 {
		return
	}
	if w.ann.Allowed(w.pass.Fset, pos, "locksafe-ok") {
		return
	}
	var names []string
	for expr := range w.held {
		names = append(names, expr)
	}
	sort.Strings(names)
	w.pass.Reportf(pos,
		"blocking operation (%s) while holding mutex %s; release before blocking or annotate //hardtape:locksafe-ok <reason> for deliberate serialization",
		what, strings.Join(names, ", "))
}
