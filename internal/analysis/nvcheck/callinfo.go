package nvcheck

import (
	"go/ast"
	"go/types"
)

// Import paths of the persistence layer. Rules 1–3 exempt these packages:
// they implement the hooks and instructions the rules police.
const (
	pmemPath    = "repro/internal/pmem"
	persistPath = "repro/internal/persist"
)

// callKind classifies the calls the rules care about.
type callKind int

const (
	callOther callKind = iota

	// pmem.Thread methods.
	threadFlush
	threadFence
	threadCommitFence
	threadStore
	threadCAS
	threadLoad
	threadBeginBatch
	threadEndBatch

	// persist.Policy hooks (through the interface or a concrete policy).
	hookTraverseRead
	hookPostTraverse
	hookRead
	hookReadData
	hookInitWrite
	hookWrote
	hookWroteData
	hookBeforeCAS
	hookBeforeReturn
)

// isWriteHook reports whether k is a hook that records a completed shared
// write (the "matching policy hook" of rule 3's post-write check).
func isWriteHook(k callKind) bool {
	return k == hookWrote || k == hookWroteData || k == hookInitWrite
}

// isFence reports whether k satisfies Protocol 2's fence-before-return:
// the commit hooks, or a direct fence (strictly stronger).
func isFence(k callKind) bool {
	switch k {
	case hookBeforeReturn, threadCommitFence, threadEndBatch, threadFence:
		return true
	}
	return false
}

// bannedInTraverse reports whether k is a persistence effect or shared
// mutation that must not appear inside a traversal phase. TraverseRead and
// PostTraverse delimit the phase; ReadData is permitted because scans
// report values mid-walk — the flush it may issue joins the closing
// PostTraverse's flushes, all persisted by the critical method's first
// protocol fence, preserving "one fence at the destination".
func bannedInTraverse(k callKind) bool {
	switch k {
	case threadFlush, threadFence, threadCommitFence, threadStore, threadCAS,
		hookRead, hookInitWrite, hookWrote, hookWroteData,
		hookBeforeCAS, hookBeforeReturn:
		return true
	}
	return false
}

var threadKinds = map[string]callKind{
	"Flush":       threadFlush,
	"Fence":       threadFence,
	"CommitFence": threadCommitFence,
	"Store":       threadStore,
	"CAS":         threadCAS,
	"Load":        threadLoad,
	"BeginBatch":  threadBeginBatch,
	"EndBatch":    threadEndBatch,
}

var hookKinds = map[string]callKind{
	"TraverseRead": hookTraverseRead,
	"PostTraverse": hookPostTraverse,
	"Read":         hookRead,
	"ReadData":     hookReadData,
	"InitWrite":    hookInitWrite,
	"Wrote":        hookWrote,
	"WroteData":    hookWroteData,
	"BeforeCAS":    hookBeforeCAS,
	"BeforeReturn": hookBeforeReturn,
}

// classifyCall resolves a call expression against the persistence layer.
func classifyCall(info *types.Info, call *ast.CallExpr) callKind {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return callOther
	}
	var fn *types.Func
	if s, ok := info.Selections[sel]; ok {
		fn, _ = s.Obj().(*types.Func)
	} else if obj, ok := info.Uses[sel.Sel]; ok {
		// Package-qualified call (persist.SomeFunc) — not a method.
		fn, _ = obj.(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil {
		return callOther
	}
	switch fn.Pkg().Path() {
	case pmemPath:
		if recvNamed(fn) == "Thread" {
			if k, ok := threadKinds[fn.Name()]; ok {
				return k
			}
		}
	case persistPath:
		// Policy hooks, whether invoked through the Policy interface or on
		// a concrete policy value: both resolve to a *types.Func declared
		// in package persist.
		if k, ok := hookKinds[fn.Name()]; ok && fn.Signature().Recv() != nil {
			return k
		}
	}
	return callOther
}

// recvNamed returns the name of a method's receiver type, pointers
// stripped, or "".
func recvNamed(fn *types.Func) string {
	recv := fn.Signature().Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// localCallee resolves a call to a function or method declared in the
// package under analysis, for same-package interprocedural reasoning.
// Calls through interfaces (persist.Policy above all) return nil: dynamic
// dispatch is opaque by design.
func localCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[fun]; ok {
			if s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
				return nil
			}
			obj = s.Obj()
		} else {
			obj = pkg.Info.Uses[fun.Sel]
		}
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg() != pkg.Types {
		return nil
	}
	return fn
}

// funcDecls maps each declared function/method of the package to its AST.
func funcDecls(pkg *Package) map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				out[fn] = fd
			}
		}
	}
	return out
}

// funcFacts summarizes one function body for the interprocedural bits of
// the rules: which call kinds appear directly, and which same-package
// functions it calls.
type funcFacts struct {
	decl    *ast.FuncDecl
	kinds   map[callKind]bool
	callees map[*types.Func]bool
}

// packageFacts computes funcFacts for every function in the package.
func packageFacts(pkg *Package) map[*types.Func]*funcFacts {
	decls := funcDecls(pkg)
	facts := make(map[*types.Func]*funcFacts, len(decls))
	for fn, fd := range decls {
		ff := &funcFacts{
			decl:    fd,
			kinds:   map[callKind]bool{},
			callees: map[*types.Func]bool{},
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if k := classifyCall(pkg.Info, call); k != callOther {
				ff.kinds[k] = true
			} else if callee := localCallee(pkg, call); callee != nil {
				ff.callees[callee] = true
			}
			return true
		})
		facts[fn] = ff
	}
	return facts
}

// reaches reports whether fn (transitively, through same-package calls)
// contains a call kind satisfying pred. Dynamic dispatch and cross-package
// calls are not followed.
func reaches(facts map[*types.Func]*funcFacts, fn *types.Func, pred func(callKind) bool) bool {
	seen := map[*types.Func]bool{}
	var walk func(f *types.Func) bool
	walk = func(f *types.Func) bool {
		if seen[f] {
			return false
		}
		seen[f] = true
		ff := facts[f]
		if ff == nil {
			return false
		}
		for k := range ff.kinds {
			if pred(k) {
				return true
			}
		}
		for c := range ff.callees {
			if walk(c) {
				return true
			}
		}
		return false
	}
	return walk(fn)
}
