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
// style call (two leading int parameters and a []byte payload), a
// RecvInit style call (an int source and a []byte buffer) and a
// persistent receive's Start (one int tag, on a handle that also has a
// Wait) must not pass a negative constant in a source/destination or tag
// position unless it is spelled as one of mp's own named constants
// (mp.AnySource, mp.AnyTag).
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
		if !ok {
			return true
		}
		rank, tag := pointToPointArgs(p, call)
		for _, a := range []struct {
			arg            ast.Expr
			what, wildcard string
		}{{rank, "source/destination rank", "mp.AnySource"}, {tag, "tag", "mp.AnyTag"}} {
			if a.arg == nil {
				continue
			}
			v, ok := negativeConstant(p, a.arg)
			if !ok || mpNamedConstant(p, a.arg) {
				continue
			}
			out = append(out, diag(p, "reservedtag", a.arg.Pos(),
				"negative %s literal %s outside internal/mp: reserved control tags (heartbeat, goodbye, abort) and wildcards are the transport's; use %s or a tag >= 0", a.what, v, a.wildcard))
		}
		return true
	})
	return out
}

// pointToPointArgs returns the rank and tag arguments of a message-passing
// method call, nil where the call has none: both of a Send/Recv/Isend/Irecv
// style call, the source of a RecvInit style call, the tag of a persistent
// receive's Start. Calls are matched by name plus parameter shape so
// wrappers (obs.InstrumentComm, test fixtures) are covered without needing
// the concrete mp types.
func pointToPointArgs(p *Package, call *ast.CallExpr) (rank, tag ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil, nil
	}
	params := fn.Type().(*types.Signature).Params()
	switch sel.Sel.Name {
	case "Send", "Recv", "Isend", "Irecv":
		if params.Len() >= 3 && isInt(params.At(0).Type()) && isInt(params.At(1).Type()) && isByteSlice(params.At(2).Type()) {
			return call.Args[0], call.Args[1]
		}
	case "RecvInit":
		if params.Len() == 2 && isInt(params.At(0).Type()) && isByteSlice(params.At(1).Type()) {
			return call.Args[0], nil
		}
	case "Start":
		if params.Len() == 1 && isInt(params.At(0).Type()) && hasMethod(p, p.Info.TypeOf(sel.X), "Wait") {
			return nil, call.Args[0]
		}
	}
	return nil, nil
}

func isInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	elem, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && elem.Kind() == types.Byte
}

// hasMethod reports whether values of type t have a method called name.
func hasMethod(p *Package, t types.Type, name string) bool {
	if t == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, p.Types, name)
	_, ok := obj.(*types.Func)
	return ok
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
