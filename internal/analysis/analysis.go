// Package analysis is a dependency-free re-implementation of the
// golang.org/x/tools/go/analysis core: Analyzer, Pass, Diagnostic,
// and a driver that type-checks packages from compiler export data.
// HarDTAPE's security argument rests on invariants the Go type system
// cannot express — oblivious ORAM access, constant-time secret
// comparison, lock-free blocking paths, mandatory fault propagation —
// so the repo carries its own analyzers (see the sibling packages
// cryptorand, consttime, oramleak, locksafe, faulterr) and runs them
// on every change via cmd/hardtape-lint.
//
// The API mirrors x/tools so the analyzers port verbatim if the real
// framework ever becomes available; the subset implemented here is
// exactly what the five HarDTAPE analyzers need.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags
	// (lowercase, no spaces).
	Name string
	// Doc is the one-paragraph description printed by -help.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic; the driver fills it in.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Category string // analyzer name, filled by the driver
}

// Position resolves a diagnostic's file:line:col.
func (d *Diagnostic) Position(fset *token.FileSet) token.Position {
	return fset.Position(d.Pos)
}

// Package is one type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// Run applies every analyzer to pkg and returns the diagnostics
// sorted by position. Analyzer errors are returned immediately: a
// checker that cannot run is a broken gate, not a clean pass.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			d.Category = name
			diags = append(diags, d)
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags, nil
}

// IsTestFile reports whether the file containing pos is a _test.go
// file. The invariants gate production code; tests routinely use
// math/rand, direct server access, and dropped errors on purpose.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	name := fset.Position(pos).Filename
	const suffix = "_test.go"
	return len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix
}
