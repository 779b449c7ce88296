package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// CtrlErrorsAnalyzer enforces the control plane's error discipline: the
// exported sentinels of internal/ctrl and internal/wal (package-level
// `Err...` variables) exist so callers can branch with errors.Is, which
// only works when every wrapping site uses the %w verb. Formatting a
// sentinel with %v or %s flattens it into text and silently breaks that
// contract.
var CtrlErrorsAnalyzer = &Analyzer{
	Name: "ctrlerrors",
	Doc:  "require ctrl/wal error sentinels to be wrapped with %w in fmt.Errorf",
	Run:  runCtrlErrors,
}

func runCtrlErrors(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isFmtErrorf(pass, call) || len(call.Args) < 2 {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			format, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			verbs, ok := formatVerbs(format)
			if !ok {
				return true // indexed arguments; out of scope
			}
			for i, arg := range call.Args[1:] {
				if i >= len(verbs) {
					break
				}
				if !isCtrlSentinel(pass, arg) {
					continue
				}
				if verbs[i] != 'w' {
					pass.Reportf(arg.Pos(),
						"ctrl sentinel %s formatted with %%%c; wrap with %%w so errors.Is keeps working",
						types.ExprString(arg), verbs[i])
				}
			}
			return true
		})
	}
	return nil
}

// isFmtErrorf reports whether call invokes the standard fmt.Errorf.
func isFmtErrorf(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pkgName.Imported().Path() == "fmt"
}

// isCtrlSentinel reports whether expr denotes an exported package-level
// `Err...` variable of error type defined in internal/ctrl, internal/wal
// (the durable log's corruption sentinels carry recovery-path decisions and
// must survive wrapping too), or internal/qos
// (admission sentinels — callers distinguish a shed from a degrade from an
// unknown tenant with errors.Is, and a flattened ErrAdmissionShed turns a
// deliberate load-management verdict into an opaque failure).
func isCtrlSentinel(pass *Pass, expr ast.Expr) bool {
	var obj types.Object
	switch e := expr.(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[e.Sel]
	default:
		return false
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || !strings.HasPrefix(v.Name(), "Err") {
		return false
	}
	switch p := v.Pkg().Path(); {
	case p == "ctrl" || strings.HasSuffix(p, "/ctrl"):
	case p == "wal" || strings.HasSuffix(p, "/wal"):
	case p == "qos" || strings.HasSuffix(p, "/qos"):
	default:
		return false
	}
	// Package-level sentinels only; struct fields and locals don't count.
	if v.Parent() != v.Pkg().Scope() {
		return false
	}
	errType, _ := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return errType != nil && types.Implements(v.Type(), errType)
}

// formatVerbs extracts the verb consumed by each successive argument of a
// Printf-style format string. It returns ok=false for formats using
// explicit argument indexes (%[1]d), which the analyzer skips.
func formatVerbs(format string) ([]byte, bool) {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// flags
		for i < len(format) && strings.IndexByte("+-# 0", format[i]) >= 0 {
			i++
		}
		// width (a * consumes an argument of its own)
		if i < len(format) && format[i] == '*' {
			verbs = append(verbs, '*')
			i++
		} else {
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				i++
			}
		}
		// precision
		if i < len(format) && format[i] == '.' {
			i++
			if i < len(format) && format[i] == '*' {
				verbs = append(verbs, '*')
				i++
			} else {
				for i < len(format) && format[i] >= '0' && format[i] <= '9' {
					i++
				}
			}
		}
		if i >= len(format) {
			break
		}
		switch format[i] {
		case '%':
			// literal percent, consumes nothing
		case '[':
			return nil, false
		default:
			verbs = append(verbs, format[i])
		}
	}
	return verbs, true
}
