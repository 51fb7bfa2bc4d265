package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// AnalyzerReservedTag fences off the transport's control plane. The mp
// layer multiplexes user messages and protocol traffic over one tag
// space by reserving the negative tags: −1 is the AnySource/AnyTag
// wildcard, −2/−3 the barrier, −4 the abort-tree poison, −5 the
// heartbeat probe and −6 the goodbye handshake. A negative tag literal
// outside internal/mp either collides with that control plane (a forged
// heartbeat or goodbye would confuse the failure detector) or silently
// relies on transport internals; either way the call is rejected at
// runtime at best and protocol-corrupting at worst.
//
// The rule: in every package except internal/mp, a Send/Recv/Isend/Irecv
// style call (two leading int parameters and a []byte payload) must not
// pass a negative constant in the source/destination or tag position
// unless it is spelled as one of mp's own named constants (mp.AnySource,
// mp.AnyTag).
var AnalyzerReservedTag = &Analyzer{
	Name: "reservedtag",
	Doc:  "negative message-tag literals (control plane: −2…−6, wildcards) appear only inside internal/mp",
	Run:  runReservedTag,
}

func runReservedTag(p *Package) []Diagnostic {
	if pathMatches(p.Path, "internal/mp") {
		return nil
	}
	var out []Diagnostic
	inspect(p, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 3 {
			return true
		}
		if !isPointToPointCall(p, call) {
			return true
		}
		for i, what := range []string{"source/destination rank", "tag"} {
			arg := call.Args[i]
			v, ok := negativeConstant(p, arg)
			if !ok || mpNamedConstant(p, arg) {
				continue
			}
			wildcard := "mp.AnySource"
			if i == 1 {
				wildcard = "mp.AnyTag"
			}
			out = append(out, diag(p, "reservedtag", arg.Pos(),
				"negative %s literal %s outside internal/mp: reserved control tags (heartbeat, goodbye, abort) and wildcards are the transport's; use %s or a tag >= 0", what, v, wildcard))
		}
		return true
	})
	return out
}

// isPointToPointCall reports whether call is a Send/Recv/Isend/Irecv
// style method call: matched by name plus the (int, int, []byte...)
// shape so wrappers (obs.InstrumentComm, test fixtures) are covered
// without needing the concrete mp.Comm type.
func isPointToPointCall(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Send", "Recv", "Isend", "Irecv":
	default:
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() < 3 {
		return false
	}
	for i := 0; i < 2; i++ {
		b, ok := sig.Params().At(i).Type().Underlying().(*types.Basic)
		if !ok || b.Info()&types.IsInteger == 0 {
			return false
		}
	}
	sl, ok := sig.Params().At(2).Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	elem, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && elem.Kind() == types.Byte
}

// negativeConstant reports whether e folds to a negative integer
// constant, returning its printed value.
func negativeConstant(p *Package, e ast.Expr) (string, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return "", false
	}
	if constant.Sign(tv.Value) >= 0 {
		return "", false
	}
	return tv.Value.String(), true
}

// mpNamedConstant reports whether e is an identifier/selector resolving
// to a constant declared by internal/mp itself (AnySource, AnyTag).
func mpNamedConstant(p *Package, e ast.Expr) bool {
	var id *ast.Ident
	switch x := e.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return false
	}
	c, ok := p.Info.Uses[id].(*types.Const)
	return ok && isMPPackage(c.Pkg())
}
