// Package oramleak fences the ORAM trust boundary. Path ORAM's
// obliviousness guarantee (paper §IV-D) holds only while every block
// access flows through the client — its stash, position map, and
// per-access path re-randomization. Code outside internal/oram that
// reads or writes server buckets directly (ReadPath / WritePath),
// tampers with stored buckets, or installs bucket observers is either
// a simulation of the adversary or a leak; both must be visibly
// annotated so the trust boundary cannot drift silently.
//
// The analyzer flags, outside the oram package itself, any call to a
// raw-store method on the ORAM server types: the oram.Server interface
// or any concrete store behind it — *oram.MemServer and the
// *oram.RemoteServer TCP transport. A promoted method is fenced exactly
// like a declared one: a wrapper elsewhere that embeds a server still
// reaches the raw store.
//
// Escape hatch (reason required): //hardtape:oram-direct reason
package oramleak

import (
	"go/ast"
	"go/types"
	"strings"

	"hardtape/internal/analysis"
)

// Analyzer flags direct ORAM-server access outside internal/oram.
var Analyzer = &analysis.Analyzer{
	Name: "oramleak",
	Doc: "forbid raw ORAM server access (ReadPath[s]/WritePath[s]/TamperBucket/" +
		"SetObserver) outside internal/oram; all block access goes through the client",
	Run: run,
}

// rawMethods are the server methods that bypass the client stash.
var rawMethods = map[string]bool{
	"ReadPath":     true,
	"WritePath":    true,
	"ReadPaths":    true,
	"WritePaths":   true,
	"TamperBucket": true,
	"SetObserver":  true,
}

// serverTypes are the receiver types exposing the raw store. Every
// Server implementation belongs here: a new backend that is not listed
// would let raw access drift past the fence.
var serverTypes = map[string]bool{
	"Server":       true,
	"MemServer":    true,
	"RemoteServer": true,
}

func run(pass *analysis.Pass) (any, error) {
	if isORAMPackage(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ann := analysis.ParseAnnotations(pass.Fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !rawMethods[sel.Sel.Name] {
				return true
			}
			typeName, ok := serverType(pass.TypesInfo, sel)
			if !ok {
				return true
			}
			if ann.Allowed(pass.Fset, call.Pos(), "oram-direct") {
				return true
			}
			pass.Reportf(call.Pos(),
				"direct ORAM server access (%s.%s) outside internal/oram bypasses the oblivious client; annotate with //hardtape:oram-direct <reason> if this is an adversary observation point",
				typeName, sel.Sel.Name)
			return true
		})
	}
	return nil, nil
}

// serverType names the ORAM server type a method call lands on: the
// receiver expression's own type or, when that is somebody else's
// wrapper with a server embedded in it, the oram type the promoted
// method is declared on.
func serverType(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	if pkgPath, name, ok := analysis.NamedType(info, sel.X); ok && isORAMPackage(pkgPath) && serverTypes[name] {
		return name, true
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return "", false
	}
	recv := selection.Obj().Type().(*types.Signature).Recv().Type()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", false
	}
	name := named.Obj().Name()
	return name, isORAMPackage(named.Obj().Pkg().Path()) && serverTypes[name]
}

// isORAMPackage matches the oram package itself (module or fixture).
func isORAMPackage(path string) bool {
	return path == "oram" || strings.HasSuffix(path, "/oram")
}
