// Package analysis is a small static-analysis framework enforcing the
// storage-engine invariants the compiler cannot check: every fixed buffer
// page is unfixed on every path, every operation span is ended, simulation
// packages stay deterministic, and errors are never silently dropped.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis —
// an Analyzer owns a Run function over a type-checked Pass — but is built
// on the standard library only (go/ast, go/types, go/importer), because
// this module carries no third-party dependencies. Should x/tools become
// available, each Analyzer ports mechanically.
//
// Findings are suppressed with an explanation comment on the offending
// line (or the line above):
//
//	//lobvet:ignore fixunfix handle is released by the caller
//
// The suppression names the analyzer and must carry a reason; bare
// suppressions are themselves reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppressions.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	// PkgPath is the import path the package was loaded under. Analyzers
	// that apply only to certain packages (determinism) key off it.
	PkgPath string
	Info    *types.Info
	// Prog holds the whole-run package set and its interprocedural
	// summaries (pair effects, infallibility, barrier events, lock
	// effects). Never nil when running through Run/RunProgram.
	Prog *Program

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed records that a //lobvet:ignore comment covers the
	// finding; suppressed diagnostics do not fail the run.
	Suppressed bool
	// SuppressReason is the explanation given with the suppression.
	SuppressReason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns every registered analyzer in a stable order.
func All() []*Analyzer {
	return []*Analyzer{FixUnfix, SpanEnd, Determinism, ErrDiscard, BarrierOrder, LockSafe}
}

// Run applies analyzers to pkg and returns the findings, suppressions
// already resolved, sorted by position. The interprocedural summaries see
// only pkg and its module-internal imports; drivers analyzing many
// packages should build one shared Program and use RunProgram.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return RunProgram(NewProgram([]*Package{pkg}), pkg, analyzers)
}

// RunProgram applies analyzers to pkg with prog supplying the
// cross-package summaries.
func RunProgram(prog *Program, pkg *Package, analyzers []*Analyzer) []Diagnostic {
	prog.AddPackage(pkg) // no-op when already indexed
	var diags []Diagnostic
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Syntax,
			Pkg:      pkg.Types,
			PkgPath:  pkg.Path,
			Info:     pkg.Info,
			Prog:     prog,
			diags:    &diags,
		}
		a.Run(pass)
	}
	diags = applySuppressions(pkg, diags, ran)
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := diags[i].Pos, diags[j].Pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags
}

// funcBodies yields every function or method body in the pass, including
// function literals, each exactly once.
func funcBodies(files []*ast.File, fn func(body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n.Body)
				}
			case *ast.FuncLit:
				fn(n.Body)
			}
			return true
		})
	}
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
