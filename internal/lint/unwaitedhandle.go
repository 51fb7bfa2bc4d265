package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerUnwaitedHandle enforces the paper's overlap contract on
// non-blocking communication: ProcNB's correctness argument (and the
// A1–A3/B1–B4 cost accounting) assumes every Isend/Irecv started in one
// tile step is completed by a matching Wait before its buffer is reused —
// a handle that is started and then dropped silently degrades the
// compute/send/receive triplet into an unfinished send or a receive whose
// ghost cells are never awaited.
//
// The rule: the result of any call returning an mp.Request must be
// consumed — its Wait/Test called, passed to a function (mp.WaitAll,
// append, a helper), stored into a field/slice/map, propagated by
// assignment, or returned. Discarding the handle (blank identifier or a
// bare expression statement) or binding it to a variable that is never
// consumed is a diagnostic. The check is object-based and deliberately
// conservative: any consuming use anywhere in the file clears the
// variable.
//
// A persistent receive (mp.Persistent) is posted by Start rather than by
// the call that makes it, so the rule follows the Start: the handle it is
// called on — a variable, or a field however indexed — must somewhere
// have its Wait or Test called, or be passed to a function, stored or
// returned, and its own Start does not count. A Start on a handle with no
// name (a call's result) can never be waited for. A Start method of a type
// that also has a Wait is a wrapper forwarding its caller's round, which
// its caller waits for.
var AnalyzerUnwaitedHandle = &Analyzer{
	Name: "unwaitedhandle",
	Doc:  "every mp non-blocking request handle must reach a Wait/WaitAll, be stored, or be returned",
	Run:  runUnwaitedHandle,
}

// isMPPackage reports whether pkg is the message-passing layer.
func isMPPackage(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == "internal/mp" || strings.HasSuffix(p, "/internal/mp")
}

// isRequestType reports whether t is mp.Request.
func isRequestType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return n.Obj().Name() == "Request" && isMPPackage(n.Obj().Pkg())
}

// isPersistentType reports whether t is mp.Persistent.
func isPersistentType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Persistent" && isMPPackage(n.Obj().Pkg())
}

// handleObject names the handle expression e stands for: the variable of
// an identifier, the field of a selector, through any index, paren or
// dereference; nil when e has no name (a call's result).
func handleObject(p *Package, e ast.Expr) types.Object {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := p.Info.Uses[x]; obj != nil {
			return obj
		}
		return p.Info.Defs[x]
	case *ast.SelectorExpr:
		return p.Info.Uses[x.Sel]
	case *ast.IndexExpr:
		return handleObject(p, x.X)
	case *ast.ParenExpr:
		return handleObject(p, x.X)
	case *ast.StarExpr:
		return handleObject(p, x.X)
	}
	return nil
}

// producesRequest reports whether call's (first) result is an mp.Request.
func producesRequest(p *Package, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		return tup.Len() > 0 && isRequestType(tup.At(0).Type())
	}
	return isRequestType(tv.Type)
}

// handle is a tracked request or started persistent receive: the call
// that made (or started) it, and whether only its Wait and Test among its
// own methods consume it.
type handle struct {
	call      *ast.CallExpr
	waitsOnly bool
	consumed  bool
}

func runUnwaitedHandle(p *Package) []Diagnostic {
	var out []Diagnostic

	// Pass 1: find request producers and how their results are bound.
	tracked := map[types.Object]*handle{} // handle var or field -> its producing call
	inspect(p, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && producesRequest(p, call) {
				out = append(out, diag(p, "unwaitedhandle", call.Pos(),
					"request handle discarded: the overlap schedule requires every Isend/Irecv to reach a Wait"))
			}
		case *ast.AssignStmt:
			if len(s.Rhs) != 1 {
				return true
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok || !producesRequest(p, call) || len(s.Lhs) == 0 {
				return true
			}
			switch lhs := s.Lhs[0].(type) {
			case *ast.Ident:
				if lhs.Name == "_" {
					out = append(out, diag(p, "unwaitedhandle", call.Pos(),
						"request handle discarded with _: the overlap schedule requires every Isend/Irecv to reach a Wait"))
					return true
				}
				obj := p.Info.Defs[lhs]
				if obj == nil {
					obj = p.Info.Uses[lhs]
				}
				if obj != nil && tracked[obj] == nil {
					tracked[obj] = &handle{call: call}
				}
			default:
				// Field, index or dereference store: the handle escapes
				// into a structure; its consumer is elsewhere.
			}
		}
		return true
	})
	out = append(out, trackStarts(p, tracked)...)
	if len(tracked) == 0 {
		return out
	}

	// Pass 2: hunt for a consuming use of each tracked handle. A started
	// persistent receive is reached through any expression naming it
	// (r.recv[i] for a field), as long as that expression is the receive
	// itself and not, say, the slice holding it.
	for _, f := range p.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if e, ok := n.(ast.Expr); ok && len(stack) > 0 {
				if h := tracked[handleObject(p, e)]; h != nil && !h.consumed &&
					(!h.waitsOnly || isPersistentType(p.Info.TypeOf(e))) &&
					consumingUse(e, stack[len(stack)-1], h.waitsOnly) {
					h.consumed = true
				}
			}
			stack = append(stack, n)
			return true
		})
	}
	for obj, h := range tracked {
		switch {
		case h.consumed:
		case h.waitsOnly:
			out = append(out, diag(p, "unwaitedhandle", h.call.Pos(),
				"persistent receive %q is started but never waited for (no Wait/Test, no WaitAll, not stored or returned)", obj.Name()))
		default:
			out = append(out, diag(p, "unwaitedhandle", h.call.Pos(),
				"request handle %q is never consumed (no Wait/Test, no WaitAll, not stored or returned)", obj.Name()))
		}
	}
	return out
}

// consumingUse reports whether the use of handle e under parent counts as
// consuming it. Comparisons (nil checks) and plain reassignments do not;
// method calls, call arguments, stores, sends and returns do — of a
// persistent receive's own methods (waitsOnly) only Wait and Test.
func consumingUse(e ast.Expr, parent ast.Node, waitsOnly bool) bool {
	switch par := parent.(type) {
	case *ast.SelectorExpr:
		// req.Wait(), req.Test(), even a bare field access: the handle's
		// own API is being exercised.
		return par.X == e && (!waitsOnly || par.Sel.Name == "Wait" || par.Sel.Name == "Test")
	case *ast.CallExpr:
		for _, a := range par.Args {
			if a == e {
				return true
			}
		}
		return par.Fun == e
	case *ast.ReturnStmt:
		return true
	case *ast.AssignStmt:
		for _, r := range par.Rhs {
			if r == e {
				return true // value propagated to another binding
			}
		}
		return false // left-hand side: reassignment, not consumption
	case *ast.CompositeLit, *ast.KeyValueExpr:
		return true
	case *ast.SendStmt:
		return par.Value == e
	case *ast.UnaryExpr:
		return par.Op.String() == "&" // address taken: escapes
	case *ast.RangeStmt:
		return par.X == e
	default:
		return false
	}
}

// trackStarts adds to tracked, as waitsOnly, every persistent receive a
// Start is called on, and flags a Start on a handle with no name. The body
// of a Start method on a type that has a Wait too is skipped: it is a
// wrapper forwarding its caller's round, which its caller waits for.
func trackStarts(p *Package, tracked map[types.Object]*handle) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "Start" &&
				hasMethod(p, p.Info.TypeOf(fd.Recv.List[0].Type), "Wait") {
				continue
			}
			ast.Inspect(d, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Start" || !isPersistentType(p.Info.TypeOf(sel.X)) {
					return true
				}
				switch obj := handleObject(p, sel.X); {
				case obj == nil:
					out = append(out, diag(p, "unwaitedhandle", call.Pos(),
						"persistent receive started on a handle with no name: nothing can Wait for the round"))
				case tracked[obj] == nil:
					tracked[obj] = &handle{call: call, waitsOnly: true}
				}
				return true
			})
		}
	}
	return out
}
