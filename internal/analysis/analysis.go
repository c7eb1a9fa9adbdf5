// Package analysis is the repo's self-contained static-analysis framework:
// a stdlib-only miniature of golang.org/x/tools/go/analysis that loads the
// module's packages with go/parser + go/types and runs invariant analyzers
// over them. The analyzers encode the contracts the engine's correctness
// rests on — determinism of emitted geometry, end-to-end context flow,
// sync.Pool discipline, checked narrowing on the wire formats, and the
// no-panic error taxonomy of the solver stack — so that "it compiles" and
// "filllint passes" together mean the invariants still hold.
//
// Suppression: a finding can be waived, with a recorded reason, by a
// pragma comment on the flagged line or the line directly above it:
//
//	//filllint:allow <analyzer> -- <reason>
//
// The reason is mandatory; a pragma without one is itself reported. The
// pragma waives exactly one analyzer on exactly one line, keeping every
// waived invariant grep-able and reviewed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Run inspects a single type-checked
// package and reports findings through the Pass.
type Analyzer struct {
	Name string
	Doc  string
	// Packages reports whether the analyzer applies to a package import
	// path. Analyzers see only packages they opt into; a nil func means
	// every package.
	Packages func(path string) bool
	Run      func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags   *[]Diagnostic
	allowed map[allowKey]*allowRec
	facts   *FactStore
}

// Diagnostic is one finding, positioned for file:line:col rendering.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless an allow pragma waives it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if rec := p.allowed[allowKey{p.Analyzer.Name, position.Filename, position.Line}]; rec != nil {
		rec.used = true
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowKey identifies one waived (analyzer, file, line) triple.
type allowKey struct {
	analyzer string
	file     string
	line     int
}

// allowRec is one well-formed allow pragma: both lines it waives point at
// the same record, so a hit on either marks the pragma used. Pragmas that
// stay unused are reported — a waiver that waives nothing is stale and
// hides whatever it once documented.
type allowRec struct {
	name string
	pos  token.Position
	used bool
}

const allowPrefix = "//filllint:allow "

// collectAllows scans a package's comments for allow pragmas. A pragma on
// line N waives findings on lines N and N+1 (its own line, or the line it
// is stacked above). Malformed pragmas — unknown analyzer or missing
// "-- reason" — are reported as findings themselves so a typo cannot
// silently disable enforcement.
func collectAllows(fset *token.FileSet, files []*ast.File, known map[string]bool, diags *[]Diagnostic) (map[allowKey]*allowRec, []*allowRec) {
	allowed := make(map[allowKey]*allowRec)
	var recs []*allowRec
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				name, reason, ok := strings.Cut(rest, "--")
				name = strings.TrimSpace(name)
				bad := func(format string, args ...any) {
					*diags = append(*diags, Diagnostic{Pos: pos, Analyzer: "pragma", Message: fmt.Sprintf(format, args...)})
				}
				if !ok || strings.TrimSpace(reason) == "" {
					bad("allow pragma needs a reason: //filllint:allow %s -- <why>", name)
					continue
				}
				if !known[name] {
					bad("allow pragma names unknown analyzer %q", name)
					continue
				}
				rec := &allowRec{name: name, pos: pos}
				recs = append(recs, rec)
				allowed[allowKey{name, pos.Filename, pos.Line}] = rec
				allowed[allowKey{name, pos.Filename, pos.Line + 1}] = rec
			}
		}
	}
	return allowed, recs
}

// knownNames returns the valid pragma vocabulary for a run: every
// registered analyzer plus whatever subset is enabled. Using the full
// registry keeps `-analyzers ctxflow` from declaring the repo's existing
// poolpair pragmas "unknown".
func knownNames(enabled []*Analyzer) map[string]bool {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range enabled {
		known[a.Name] = true
	}
	return known
}

// runPackage applies the enabled analyzers to one loaded package,
// threading facts (which may be nil for single-package runs) and
// reporting stale allow pragmas, and returns the findings sorted by
// position.
func runPackage(analyzers []*Analyzer, pkg *Package, known map[string]bool, facts *FactStore) []Diagnostic {
	var diags []Diagnostic
	allowed, recs := collectAllows(pkg.Fset, pkg.Files, known, &diags)
	enabled := make(map[string]*Analyzer, len(analyzers))
	for _, a := range analyzers {
		enabled[a.Name] = a
	}
	for _, a := range analyzers {
		if a.Packages != nil && !a.Packages(pkg.Types.Path()) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
			allowed:  allowed,
			facts:    facts,
		}
		a.Run(pass)
	}
	// A pragma is only judged stale when its analyzer actually ran here:
	// waivers for disabled analyzers or out-of-scope packages are left
	// alone rather than reported against a check that never looked.
	for _, rec := range recs {
		if rec.used {
			continue
		}
		a := enabled[rec.name]
		if a == nil || (a.Packages != nil && !a.Packages(pkg.Types.Path())) {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:      rec.pos,
			Analyzer: "pragma",
			Message:  fmt.Sprintf("unused allow pragma: %s reports nothing on this or the next line", rec.name),
		})
	}
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders findings by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
