// Package telemetrysafe fences the telemetry export boundary. The
// metrics registry publishes to the untrusted SP's scrapers, so the
// threat model allows only aggregates the SP already observes —
// counts, latencies, byte totals. A metric name or label value built
// from a runtime string is the classic leak: one formatted address,
// key fragment, or ORAM position in a label and the series itself
// exfiltrates per-user data, cardinality-bombing the registry as a
// bonus.
//
// The analyzer flags any call to Registry.Counter / Registry.Gauge /
// Registry.Histogram whose metric name or label arguments are not
// compile-time constants, any Registry.StartSpan whose span name is
// not, and any Span.AddInt whose attribute name is not — span and
// attribute names export on the admin trace endpoints exactly like
// metric names, so they obey the same rule. Operator-controlled
// dynamic labels (backend deployment names, enum-driven class labels)
// are legitimate; they must carry a visible waiver so the trust
// decision is reviewable. (A span attribute's value is an integer, so
// it carries no text to check.)
//
// Escape hatch (reason required): //hardtape:telemetry-ok reason —
// on the call line, the line above, or the enclosing function's doc.
package telemetrysafe

import (
	"go/ast"
	"strings"

	"hardtape/internal/analysis"
)

// Analyzer flags non-constant metric names, label arguments, and span
// and span attribute names.
var Analyzer = &analysis.Analyzer{
	Name: "telemetrysafe",
	Doc: "require compile-time-constant metric names and labels in telemetry " +
		"registrations; dynamic strings leak user data into the exported series",
	Run: run,
}

// labelStart maps each registration method to the index of its first
// label argument (name and help precede; Histogram also takes buckets).
var labelStart = map[string]int{
	"Counter":   2,
	"Gauge":     2,
	"Histogram": 3,
}

func run(pass *analysis.Pass) (any, error) {
	if isTelemetryPackage(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ann := analysis.ParseAnnotations(pass.Fset, file)
		for _, decl := range file.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				method := sel.Sel.Name
				start, isReg := labelStart[method]
				recv := "Registry"
				if method == "AddInt" {
					recv = "Span"
				} else if !isReg && method != "StartSpan" {
					return true
				}
				pkgPath, typeName, ok := analysis.NamedType(pass.TypesInfo, sel.X)
				if !ok || !isTelemetryPackage(pkgPath) || typeName != recv {
					return true
				}
				if ann.Allowed(pass.Fset, call.Pos(), "telemetry-ok") ||
					analysis.FuncAllowed(pass.Fset, fn, "telemetry-ok") {
					return true
				}
				check := func(arg ast.Expr, what string) {
					if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Value != nil {
						return // compile-time constant
					}
					pass.Reportf(arg.Pos(),
						"dynamic %s in telemetry registration (%s.%s): exported series may only carry compile-time constants; annotate with //hardtape:telemetry-ok <reason> if the value is operator-controlled",
						what, typeName, method)
				}
				switch {
				case method == "AddInt":
					// AddInt(name, value): only the name is text.
					if len(call.Args) > 0 {
						check(call.Args[0], "span attribute name")
					}
				case method == "StartSpan":
					// StartSpan(ctx, name): the name follows the context.
					if len(call.Args) > 1 {
						check(call.Args[1], "span name")
					}
				default:
					if len(call.Args) > 0 {
						check(call.Args[0], "metric name")
					}
					for i := start; i < len(call.Args); i++ {
						check(call.Args[i], "label argument")
					}
				}
				return true
			})
		}
	}
	return nil, nil
}

// isTelemetryPackage matches the telemetry package itself (module
// path or fixture).
func isTelemetryPackage(path string) bool {
	return path == "telemetry" || strings.HasSuffix(path, "/telemetry")
}
