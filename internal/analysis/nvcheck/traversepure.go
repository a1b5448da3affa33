package nvcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// TraversePure enforces "no persisting is done during the traverse method"
// (paper §4). A traversal phase opens at a Policy.TraverseRead call (or at
// the top of a //nvcheck:traverse function) and closes at the next
// Policy.PostTraverse — Protocol 1's ensureReachable+makePersistent. While
// the phase is open, the function must not issue persistence instructions
// (Thread.Flush/Fence/CommitFence), mutate shared memory (Thread.Store/CAS),
// invoke critical-section hooks (Read/InitWrite/Wrote/WroteData/BeforeCAS/
// BeforeReturn), or call a same-package function that transitively does any
// of those. ReadData is permitted: scans report values mid-walk, and the
// flush it may issue is fenced with the closing PostTraverse's flushes.
//
// The phase is tracked in source order within each function body, which is
// exact for the loop-free spine of every traversal here and conservative
// for the retry loops (a violation inside the loop body is textually inside
// the open phase). A Store/CAS/BeforeCAS inside an open phase is exactly
// the seed's missing-ensureReachable shape: the critical section began
// before the traversal's destination was persisted.
var TraversePure = &Analyzer{
	Name: "traversepure",
	Doc:  "no persistence effects inside a traversal phase (paper §4, Protocol 1)",
	Run:  runTraversePure,
}

// traverseEvent is one interesting call, in source order.
type traverseEvent struct {
	pos  token.Pos
	kind callKind
	call *ast.CallExpr
	fn   *types.Func // same-package callee, when kind == callOther
}

func runTraversePure(pass *Pass) {
	pkg := pass.Pkg
	if pkg.Path == pmemPath || pkg.Path == persistPath {
		return
	}
	facts := packageFacts(pkg)
	for fn, ff := range facts {
		checkTraverseFn(pass, facts, fn, ff)
	}
}

func checkTraverseFn(pass *Pass, facts map[*types.Func]*funcFacts, fn *types.Func, ff *funcFacts) {
	annotated := hasTraverseDirective(ff.decl)
	if !ff.kinds[hookTraverseRead] && !annotated {
		return
	}
	pkg := pass.Pkg

	var events []traverseEvent
	ast.Inspect(ff.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		k := classifyCall(pkg.Info, call)
		ev := traverseEvent{pos: call.Pos(), kind: k, call: call}
		if k == callOther {
			ev.fn = localCallee(pkg, call)
			if ev.fn == nil {
				return true
			}
		}
		events = append(events, ev)
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	open := annotated // an annotated traverse function is one whole phase
	for _, ev := range events {
		switch {
		case ev.kind == hookTraverseRead:
			open = true
		case ev.kind == hookPostTraverse:
			open = false
		case !open:
			// Before the phase opens (node init writes) or after it closed
			// (the critical section): out of scope.
		case ev.kind == callOther:
			// Same-package call inside the phase: flag it if its body
			// transitively performs a banned effect.
			if reaches(facts, ev.fn, bannedInTraverse) {
				pass.Reportf(ev.pos,
					"call to %s inside the traversal phase of %s: the callee persists or mutates shared memory (traversals must not persist; paper §4)",
					ev.fn.Name(), fn.Name())
			}
		case bannedInTraverse(ev.kind):
			msg := "persistence effect inside the traversal phase of %s: %s (traversals must not persist; paper §4)"
			if ev.kind == threadStore || ev.kind == threadCAS || ev.kind == hookBeforeCAS {
				msg = "critical-section operation inside the traversal phase of %s: %s — missing Policy.PostTraverse (ensureReachable+makePersistent) before the critical section?"
			}
			pass.Reportf(ev.pos, msg, fn.Name(), callLabel(pkg, ev.call))
		}
	}
}

// callLabel renders a call for diagnostics, e.g. "t.Flush" or "pol.Wrote".
func callLabel(pkg *Package, call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return types.ExprString(sel)
	}
	return types.ExprString(call.Fun)
}
