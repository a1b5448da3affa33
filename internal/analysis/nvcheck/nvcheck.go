// Package nvcheck statically enforces the NVTraverse persistence discipline
// over this repository: the protocol that package persist documents in prose
// — nothing persists during a traversal, ensureReachable+makePersistent at
// the destination, flush-after-write and fence-before-return in the critical
// section, whole-line node layouts — becomes four analyzers that flag
// violations at the call site, before any crash-torture run has a chance to
// miss them.
//
// The four rules:
//
//	traversepure — no persistence effect may execute inside a traversal
//	               phase: between a Policy.TraverseRead call (or from the
//	               top of a //nvcheck:traverse function) and the closing
//	               Policy.PostTraverse, code must not reach
//	               pmem.Thread.Flush/Fence/CommitFence/Store/CAS or any
//	               critical-section policy hook ("no persisting is done
//	               during the traverse method", paper §4). Entering the
//	               critical section (BeforeCAS, Store, CAS) while the
//	               traversal is still open is the shape of the seed's
//	               missing-ensureReachable bug: the destination was never
//	               persisted before the link CAS depended on it.
//	fencereturn  — every return path of an exported mutating operation of a
//	               protocol package must pass through Policy.BeforeReturn /
//	               Thread.CommitFence / Thread.EndBatch / Thread.Fence
//	               ("fence before every return statement", Protocol 2).
//	writehook    — every Thread.Store/CAS in a critical section must be
//	               followed on its success path by the matching write hook
//	               (Wrote / WroteData / InitWrite) for the same cell, and
//	               every write of a link (hook Wrote) must be preceded by a
//	               dominating Policy.BeforeCAS ("fence before every
//	               write/CAS", Protocol 2; a data-word write, hook
//	               WroteData, links nothing and is exempt). This is the
//	               exact class of bug behind the
//	               LinkAndPersist.WroteData eager-flush caveat.
//	linelayout   — every arena-allocated node struct must be padded to a
//	               whole positive multiple of 64 bytes and no pmem.Cell
//	               field may straddle a line boundary: the persistence
//	               model is line-granular, so two nodes sharing a line
//	               would share a crash fate.
//
// Scope and soundness. The analyzers are per-package and largely
// per-function-body: calls through the persist.Policy interface are opaque
// by design (the policy decides what a hook does — Izraelevitz flushing
// inside TraverseRead is the algorithm, not a bug), cross-package calls are
// not followed (every Store/CAS on simulated memory lives in a structure
// package, so the rules fire where the mutation is), and dominance is
// approximated by preceding-sibling statements, which is exact for the
// goto-free straight-line protocol code this repository writes. Packages
// pmem and persist are exempt from rules 1–3: they implement the layer the
// rules police. See DESIGN.md "Static persistence checking" for the full
// decidability discussion.
//
// Violations that are deliberate carry an inline justification:
//
//	//nvcheck:ignore <rule> -- <reason>
//
// placed on, or on the line directly above, the flagged line. The reason is
// mandatory; an ignore without one is itself reported.
package nvcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one nvcheck rule. The shape deliberately mirrors
// golang.org/x/tools/go/analysis so the rules can migrate to the upstream
// framework wholesale if this module ever takes the dependency; the runner
// here is self-contained because the build must stay dependency-free.
type Analyzer struct {
	// Name is the rule name used in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run reports this rule's findings for one package.
	Run func(*Pass)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Rule:    p.Analyzer.Name,
		Pos:     p.Pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported protocol violation.
type Diagnostic struct {
	Rule    string
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Rule, d.Message)
}

// A Package is one parsed, type-checked package under analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// All returns the nvcheck analyzers in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		TraversePure,
		FenceReturn,
		WriteHook,
		LineLayout,
	}
}

// ByName resolves rule names to analyzers ("all" or empty selects All).
func ByName(names ...string) ([]*Analyzer, error) {
	if len(names) == 0 {
		return All(), nil
	}
	var out []*Analyzer
	for _, n := range names {
		if n == "all" {
			return All(), nil
		}
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("nvcheck: unknown rule %q", n)
		}
	}
	return out, nil
}
