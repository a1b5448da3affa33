package nvcheck

import (
	"go/ast"
	"go/types"
)

// WriteHook enforces Protocol 2's write discipline inside critical
// sections, per function body: in any function that invokes persistence
// hooks (protocol code), every Thread.Store and Thread.CAS on a shared cell
// must be followed — on the path where the write took effect — by the
// matching policy hook for the same cell (Wrote for link words, WroteData
// for data words, InitWrite for unpublished fields), and every write to a
// published cell — every Thread.CAS, and every Thread.Store whose matching
// hook is Wrote or WroteData — must be preceded by a dominating
// Policy.BeforeCAS (the fence-before-write point). A Store whose hook is
// InitWrite writes a node no other thread can reach yet and is exempt. A
// missed WroteData is the exact bug class behind the LinkAndPersist
// eager-flush caveat: the write lands, no flush covers it, and the commit
// fence acknowledges an operation whose value is not durable. A missed
// BeforeCAS before a published write is the premise NVTraverse's
// PostTraverse rests on: it issues no fence of its own, so the first
// protocol fence of the critical method is what persists the traversal
// destination, and it must come before anything another thread could see
// depend on it.
//
// The check is per-function-body, not interprocedural: every Store/CAS on
// simulated memory in this repository sits in the same function as its
// hook (the protocol demands adjacency — the hook takes the same cell), so
// a body-local search is sound here; helpers that mutate without any hook
// in scope are quiescent-construction code and are out of scope by the
// "invokes hooks" gate. Cells are matched syntactically (the printed
// expression), which is exact for the idiomatic `t.CAS(&n.Next, ...)` /
// `pol.Wrote(t, &n.Next)` adjacency the code base uses.
var WriteHook = &Analyzer{
	Name: "writehook",
	Doc:  "every Store/CAS in a critical section needs its matching write hook, and every write to a published cell a preceding BeforeCAS (Protocol 2)",
	Run:  runWriteHook,
}

func runWriteHook(pass *Pass) {
	pkg := pass.Pkg
	if pkg.Path == pmemPath || pkg.Path == persistPath {
		return
	}
	for fn, ff := range packageFacts(pkg) {
		hasHook := false
		for k := range ff.kinds {
			if k >= hookTraverseRead && k <= hookBeforeReturn {
				hasHook = true
				break
			}
		}
		if !hasHook {
			continue
		}
		checkWriteHooks(pass, fn, ff.decl)
	}
}

func checkWriteHooks(pass *Pass, fn *types.Func, fd *ast.FuncDecl) {
	pkg := pass.Pkg

	// Paths from the body root to each node, so we can walk outward from a
	// write to its following/preceding siblings.
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		k := classifyCall(pkg.Info, call)
		if k != threadStore && k != threadCAS {
			return true
		}
		cell := cellArg(call)
		if cell == "" {
			return true
		}
		hook := hookFollows(pkg, parents, call, cell)
		if hook == callOther {
			verb := "Store"
			if k == threadCAS {
				verb = "CAS"
			}
			pass.Reportf(call.Pos(),
				"%s of %s in %s has no matching write hook on its success path: need Policy.Wrote / WroteData / InitWrite for the same cell after the write (Protocol 2; the LinkAndPersist.WroteData caveat is this bug)",
				verb, cell, fn.Name())
		}
		if beforeCASDominates(pkg, parents, call) {
			return true
		}
		switch {
		case k == threadCAS:
			pass.Reportf(call.Pos(),
				"CAS of %s in %s without a dominating Policy.BeforeCAS: the pre-CAS fence orders the new node's flushed fields before the link publishes them (Protocol 2)",
				cell, fn.Name())
		case hook == hookWrote || hook == hookWroteData:
			pass.Reportf(call.Pos(),
				"Store of %s in %s writes a published cell without a dominating Policy.BeforeCAS: the first protocol fence is what persists the traversal destination, so no shared write may precede it (Protocol 2)",
				cell, fn.Name())
		}
		return true
	})
}

// cellArg returns the printed first argument of a Store/CAS call — the
// *pmem.Cell being written.
func cellArg(call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return ""
	}
	return types.ExprString(call.Args[0])
}

// enclosingStmt walks up from n to the statement that is a direct child of
// a block (or case body), returning it and its parent list context.
func enclosingStmt(parents map[ast.Node]ast.Node, n ast.Node) (ast.Stmt, ast.Node) {
	cur := n
	for {
		p := parents[cur]
		if p == nil {
			return nil, nil
		}
		if s, ok := cur.(ast.Stmt); ok {
			switch p.(type) {
			case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
				return s, p
			}
		}
		cur = p
	}
}

// stmtList returns the statement list a block-like node holds.
func stmtList(n ast.Node) []ast.Stmt {
	switch b := n.(type) {
	case *ast.BlockStmt:
		return b.List
	case *ast.CaseClause:
		return b.Body
	case *ast.CommClause:
		return b.Body
	}
	return nil
}

// callsHookOn returns the kind of the first write hook call in the subtree
// whose cell argument (hooks take (t, cell)) prints equal to cell, or
// callOther if there is none.
func callsHookOn(pkg *Package, n ast.Node, cell string) callKind {
	found := callOther
	ast.Inspect(n, func(m ast.Node) bool {
		if found != callOther {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		k := classifyCall(pkg.Info, call)
		if !isWriteHook(k) {
			return true
		}
		if len(call.Args) >= 2 && types.ExprString(call.Args[1]) == cell {
			found = k
			return false
		}
		// PostTraverse-style slice hooks don't occur for writes; single
		// cells only.
		return true
	})
	return found
}

// hookFollows returns the kind of the matching write hook that appears
// after the write, or callOther if none does, scanning forward through
// following siblings and out through enclosing blocks — and, when the write
// sits in an if-condition, inside that if's body (the CAS success branch).
func hookFollows(pkg *Package, parents map[ast.Node]ast.Node, call *ast.CallExpr, cell string) callKind {
	// If the call is syntactically inside an if-statement's condition, a
	// hook anywhere in the then-body counts (success-branch placement).
	for cur := ast.Node(call); cur != nil; cur = parents[cur] {
		ifst, ok := parents[cur].(*ast.IfStmt)
		if ok && cur == ast.Node(ifst.Cond) {
			if h := callsHookOn(pkg, ifst.Body, cell); h != callOther {
				return h
			}
		}
		if _, isStmt := cur.(ast.Stmt); isStmt {
			break
		}
	}

	st, _ := enclosingStmt(parents, call)
	for st != nil {
		parent := parents[st]
		list := stmtList(parent)
		idx := -1
		for i, s := range list {
			if s == st {
				idx = i
				break
			}
		}
		if idx >= 0 {
			for _, s := range list[idx+1:] {
				if h := callsHookOn(pkg, s, cell); h != callOther {
					return h
				}
				if terminal(s) {
					return callOther // path ends before any hook
				}
			}
		}
		// Continue scanning after the enclosing construct.
		next, _ := enclosingStmt(parents, parent)
		if next == st {
			break
		}
		st = next
	}
	return callOther
}

// terminal reports whether s unconditionally leaves the enclosing list
// (return/branch), ending the forward scan.
func terminal(s ast.Stmt) bool {
	switch s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	}
	return false
}

// beforeCASDominates reports whether a Policy.BeforeCAS call dominates the
// CAS: a preceding sibling (here or in an enclosing block) that always
// calls it.
func beforeCASDominates(pkg *Package, parents map[ast.Node]ast.Node, call *ast.CallExpr) bool {
	isBeforeCAS := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if c, ok := m.(*ast.CallExpr); ok && classifyCall(pkg.Info, c) == hookBeforeCAS {
				found = true
				return false
			}
			return true
		})
		return found
	}
	st, _ := enclosingStmt(parents, call)
	for st != nil {
		parent := parents[st]
		list := stmtList(parent)
		for i, s := range list {
			if s == st {
				break
			}
			_ = i
			if isBeforeCAS(s) {
				return true
			}
		}
		next, _ := enclosingStmt(parents, parent)
		if next == st {
			break
		}
		st = next
	}
	return false
}
