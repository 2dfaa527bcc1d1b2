// Package cryptorand forbids math/rand in security-sensitive
// packages. HarDTAPE's side-channel defenses (the HEVM's pre-evict /
// pre-load noise, the prefetcher's randomized interval timer, ORAM's
// leaf remapping) are only as strong as their entropy source: a
// Mersenne-twister-class generator lets the adversary reconstruct the
// noise schedule and subtract it from the observed trace. Sensitive
// packages must draw from crypto/rand or a CSPRNG seeded by it.
//
// Those defenses draw from internal/drbg, keyed from crypto/rand
// unless a model seed is set — and a seed is public, so a seeded
// device hides nothing. Outside internal/bench (the model),
// internal/core (which forwards the seed) and test files, the analyzer
// also flags every write of core.Config.Seed and every call of
// oram.WithSeed.
//
// Escape hatch (reason required):
//
//	import mrand "math/rand" //hardtape:cryptorand-ok reason...
package cryptorand

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"

	"hardtape/internal/analysis"
)

// Analyzer flags math/rand imports in sensitive packages and model
// seeds set outside the model.
var Analyzer = &analysis.Analyzer{
	Name: "cryptorand",
	Doc: "forbid math/rand in security-sensitive packages " +
		"(hevm, oram, attest, channel, fleet, core, secp256k1), and " +
		"core.Config.Seed / oram.WithSeed outside internal/bench and internal/core; " +
		"noise and key schedules must be cryptographically strong",
	Run: run,
}

// seedSetters are the package-path elements allowed to set a model
// seed: the model itself and the device that forwards it.
var seedSetters = map[string]bool{"bench": true, "core": true}

// insecure lists the generator packages that leak their state.
var insecure = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

func run(pass *analysis.Pass) (any, error) {
	sensitive := analysis.SensitivePackage(pass.Pkg.Path())
	seeds := !seedSetters[shortPath(pass.Pkg.Path())]
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ann := analysis.ParseAnnotations(pass.Fset, file)
		if seeds {
			checkSeeds(pass, ann, file)
		}
		if !sensitive {
			continue
		}
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !insecure[path] {
				continue
			}
			if ann.Allowed(pass.Fset, imp.Pos(), "cryptorand-ok") {
				continue
			}
			pass.Reportf(imp.Pos(),
				"insecure randomness: %s imported in security-sensitive package %s; use crypto/rand or a crypto-seeded source",
				path, shortPath(pass.Pkg.Path()))
		}
	}
	return nil, nil
}

// checkSeeds flags writes of core.Config.Seed — assignment, ++/-- or a
// composite-literal key — and calls of oram.WithSeed.
func checkSeeds(pass *analysis.Pass, ann *analysis.Annotations, file *ast.File) {
	report := func(pos token.Pos, what string) {
		if !ann.Allowed(pass.Fset, pos, "cryptorand-ok") {
			pass.Reportf(pos, "model seed: %s outside internal/bench and internal/core; "+
				"a seeded device's noise, prefetch cadence and ORAM leaves are public", what)
		}
	}
	isSeedField := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Seed" && isCoreConfig(pass, sel.X)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if isSeedField(lhs) {
					report(lhs.Pos(), "core.Config.Seed written")
				}
			}
		case *ast.IncDecStmt:
			if isSeedField(n.X) {
				report(n.X.Pos(), "core.Config.Seed written")
			}
		case *ast.CompositeLit:
			if !isCoreConfig(pass, n) {
				break
			}
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Seed" {
						report(kv.Pos(), "core.Config.Seed written")
					}
				}
			}
		case *ast.CallExpr:
			path, name, ok := analysis.CalleeName(pass.TypesInfo, n, pass.Pkg.Path())
			if ok && name == "WithSeed" && shortPath(path) == "oram" {
				report(n.Pos(), "oram.WithSeed called")
			}
		}
		return true
	})
}

// isCoreConfig reports whether e's type is (a pointer to) core.Config.
func isCoreConfig(pass *analysis.Pass, e ast.Expr) bool {
	path, name, ok := analysis.NamedType(pass.TypesInfo, e)
	return ok && name == "Config" && shortPath(path) == "core"
}

// shortPath trims the module prefix for readable diagnostics.
func shortPath(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
