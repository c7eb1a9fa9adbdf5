package analysis

import (
	"go/ast"
	"os"
	"path/filepath"
	"testing"
)

// toyCountFact is a package fact used to prove facts flow dependency-wise
// through the driver.
type toyCountFact struct{ Funcs int }

func (toyCountFact) FactName() string { return "toy.Count" }

// toyAnalyzer exports how many functions each package declares and
// reports, in every package, the counts of its local dependencies — so a
// dependent's findings are only correct if the dependency's fact arrived.
func toyAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "toy",
		Doc:  "test analyzer: cross-package function counting",
		Run: func(p *Pass) {
			n := 0
			for _, f := range p.Files {
				for _, d := range f.Decls {
					if _, ok := d.(*ast.FuncDecl); ok {
						n++
					}
				}
			}
			p.ExportPackageFact(toyCountFact{Funcs: n})
			for _, imp := range p.Pkg.Imports() {
				var c toyCountFact
				if p.ImportPackageFact(imp.Path(), &c) {
					p.Reportf(p.Files[0].Pos(), "dep %s has %d funcs", imp.Path(), c.Funcs)
				}
			}
		},
	}
}

// writeTestModule lays out a two-package module, b importing a.
func writeTestModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmod\n\ngo 1.22\n",
		"a/a.go": "package a\n\nfunc Answer() int { return 42 }\n",
		"b/b.go": "package b\n\nimport \"tmod/a\"\n\nvar N = a.Answer()\n",
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestDriverColdWarmIncremental runs the two-package module once: b's
// finding is only right if a's fact reached it, which the dependency
// ordered pass guarantees.
func TestDriverColdWarmIncremental(t *testing.T) {
	root := writeTestModule(t)
	diags, npkgs, err := RunModule(root, []*Analyzer{toyAnalyzer()})
	if err != nil {
		t.Fatal(err)
	}
	if npkgs != 2 {
		t.Fatalf("packages = %d, want 2", npkgs)
	}
	if len(diags) != 1 || diags[0].Message != "dep tmod/a has 1 funcs" {
		t.Fatalf("diags: %v", diags)
	}
}
