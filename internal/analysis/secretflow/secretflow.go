// Package secretflow is a dataflow taint analyzer for key material.
// HarDTAPE's secrecy argument (§V A2/A3) rests on secrets —
// attestation session keys, resumption PSKs, STEKs, sealed plaintext,
// ORAM stash contents — never leaving the trusted path except under
// channel.Seal. The syntactic analyzers cannot see a key flow through
// two helpers into an error string; this one can: it rides the shared
// dataflow layer in internal/analysis (per-function transfer
// summaries over the package call graph, field/slice-sensitive taint
// propagation) and reports when a tainted value reaches an exfil
// sink.
//
// Sources:
//   - identifiers and struct fields whose names match the Flow class
//     of the shared secret lexicon (key, secret, psk, stek, hmac,
//     measurement, password, seed, stash, plaintext, ikm, prk) and
//     whose type carries bytes (slice/array of byte, string);
//   - results of key-derivation calls in the attest, session, and
//     channel packages (TrafficKey, ResumptionPSK, deriveKey, …).
//
// Sinks:
//   - format/error/log construction: fmt.Errorf/Sprintf/Printf/
//     Fprintf & friends, errors.New, log.*, panic;
//   - telemetry registration names and label values
//     (telemetry.Registry.Counter/Gauge/Histogram);
//   - distributed-tracing span names (telemetry.Registry.StartSpan):
//     span records leave the device on the trace reply and surface on
//     the admin endpoints, so they are exactly as public as metric
//     labels (a span record has no other caller-chosen text: its
//     attributes are integers and its failure is one bit);
//   - wire writes that bypass channel.Seal: Write/WriteString method
//     calls with a tainted payload;
//   - flag defaults in cmd/ packages (flag.String & friends).
//
// Sanitizers: Seal/Open-shaped calls (AEAD seal, channel seal) —
// their results are ciphertext or already-authenticated payload, the
// one sanctioned way secrets cross the boundary.
//
// Escape hatch (reason required): //hardtape:secret-ok reason — on
// the sink line, the line above, or the enclosing function's doc.
package secretflow

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"hardtape/internal/analysis"
)

// Analyzer reports secret-tainted values reaching exfiltration sinks.
var Analyzer = &analysis.Analyzer{
	Name: "secretflow",
	Doc: "track secret key material through assignments and calls and " +
		"report flows into logs, error strings, telemetry labels, flag " +
		"defaults, and unsealed wire writes",
	Run: run,
}

// keyDerivation matches exported/unexported key-derivation API names
// in the trusted-path packages.
var keyDerivation = regexp.MustCompile(`(?i)(key|psk|derive)`)

// derivationPkgs are the package-path elements whose derivation APIs
// mint secrets (matched like analysis.SensitivePackage, so fixtures
// named "session" qualify too).
var derivationPkgs = map[string]bool{"attest": true, "session": true, "channel": true}

// sanitizerName matches seal/open-shaped calls: AEAD.Seal,
// SecureChannel.Seal, cryptor.sealInto/openInto. Their outputs are
// ciphertext (or authenticated plaintext the callee vouches for), not
// raw key material.
var sanitizerName = regexp.MustCompile(`^(Seal|Open|seal|open)`)

func run(pass *analysis.Pass) (any, error) {
	flow := analysis.AnalyzeTaint(pass.Files, pass.TypesInfo, &analysis.TaintConfig{
		SourceName: func(name string, t types.Type) bool {
			return analysis.LooksSecretFlow(name) && analysis.ByteLikeType(t)
		},
		SourceCall: func(fn *types.Func, call *ast.CallExpr) bool {
			if fn.Pkg() == nil || !pkgInSet(fn.Pkg().Path(), derivationPkgs) {
				return false
			}
			if !keyDerivation.MatchString(fn.Name()) {
				return false
			}
			return resultsCarryBytes(fn)
		},
		Sanitizer: func(fn *types.Func, call *ast.CallExpr) bool {
			return sanitizerName.MatchString(fn.Name())
		},
		PropagateUnknown: true,
	})

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
				checkSink(pass, flow, ann, fn, call)
				return true
			})
		}
	}
	return nil, nil
}

// checkSink classifies call and reports tainted arguments reaching it.
func checkSink(pass *analysis.Pass, flow *analysis.Flow, ann *analysis.Annotations, fn *ast.FuncDecl, call *ast.CallExpr) {
	path, name, ok := analysis.CalleeName(pass.TypesInfo, call, pass.Pkg.Path())
	if !ok {
		// panic(x) and other non-selector builtins.
		if id, isIdent := call.Fun.(*ast.Ident); isIdent && id.Name == "panic" {
			reportTainted(pass, flow, ann, fn, call, call.Args, "panic value")
		}
		return
	}

	switch {
	case path == "fmt":
		args := call.Args
		what := "formatted output (fmt." + name + ")"
		switch name {
		case "Errorf", "Sprintf", "Sprint", "Sprintln", "Printf", "Print", "Println":
			what = "format args (fmt." + name + ")"
		case "Fprintf", "Fprint", "Fprintln":
			if len(args) > 0 {
				args = args[1:] // the writer itself is not a payload
			}
			what = "format args (fmt." + name + ")"
		default:
			return
		}
		reportTainted(pass, flow, ann, fn, call, args, what)
	case path == "errors" && (name == "New" || name == "Join"):
		reportTainted(pass, flow, ann, fn, call, call.Args, "error value (errors."+name+")")
	case path == "log" || strings.HasSuffix(path, "/log"):
		reportTainted(pass, flow, ann, fn, call, call.Args, "log output (log."+name+")")
	case path == "flag":
		reportTainted(pass, flow, ann, fn, call, call.Args, "flag registration (flag."+name+")")
	case isTelemetryRegistration(path, name):
		reportTainted(pass, flow, ann, fn, call, call.Args, "telemetry name/label ("+name+")")
	case isSpanStart(path, name):
		reportTainted(pass, flow, ann, fn, call, call.Args, "trace span name ("+name+")")
	case isWireWrite(path, name):
		if len(call.Args) >= 1 {
			reportTainted(pass, flow, ann, fn, call, call.Args[:1], "unsealed wire write")
		}
	}
}

// isWireWrite matches Write/WriteString on transport-shaped receivers
// — net.Conn and friends, bufio writers wrapping them, HTTP response
// writers — but NOT hash/MAC writers: feeding key material to an HMAC
// is the key schedule, not exfiltration.
func isWireWrite(path, name string) bool {
	typeName, method, found := strings.Cut(name, ".")
	if !found {
		return false
	}
	if method != "Write" && method != "WriteString" {
		return false
	}
	switch {
	case path == "net", path == "net/http", path == "bufio", path == "os":
		return true
	case strings.Contains(typeName, "Conn"):
		return true
	}
	return false
}

// isSpanStart matches Registry.StartSpan in the telemetry package: span
// names export like metric labels, so key material must never reach
// them. Span.AddInt is deliberately absent — its int64 argument cannot
// carry byte-like taint.
func isSpanStart(path, name string) bool {
	return name == "Registry.StartSpan" && (path == "telemetry" || strings.HasSuffix(path, "/telemetry"))
}

// isTelemetryRegistration matches Registry.Counter/Gauge/Histogram in
// the telemetry package (CalleeName yields "Registry.Counter").
func isTelemetryRegistration(path, name string) bool {
	if path != "telemetry" && !strings.HasSuffix(path, "/telemetry") {
		return false
	}
	switch name {
	case "Registry.Counter", "Registry.Gauge", "Registry.Histogram":
		return true
	}
	return false
}

func reportTainted(pass *analysis.Pass, flow *analysis.Flow, ann *analysis.Annotations, fn *ast.FuncDecl, call *ast.CallExpr, args []ast.Expr, what string) {
	for _, arg := range args {
		if !flow.Tainted(arg) {
			continue
		}
		if ann.Allowed(pass.Fset, call.Pos(), "secret-ok") ||
			analysis.FuncAllowed(pass.Fset, fn, "secret-ok") {
			return
		}
		pass.Reportf(arg.Pos(),
			"secret material flows into %s; secrets may only leave the trusted path under channel.Seal (waive with //hardtape:secret-ok <reason>)",
			what)
		return // one finding per sink call is enough signal
	}
}

func pkgInSet(path string, set map[string]bool) bool {
	for _, elem := range strings.Split(path, "/") {
		if set[elem] {
			return true
		}
	}
	return false
}

// resultsCarryBytes reports whether any result of fn is byte-like —
// the signature shape of a derivation API worth treating as a source.
func resultsCarryBytes(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if analysis.ByteLikeType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}
