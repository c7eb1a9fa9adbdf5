package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches expectation comments in fixtures: // want "substring"
var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// runFixture type-checks one fixture file under pkgPath (so package-scoped
// analyzers see the path they scope on) and asserts that the analyzer's
// findings match the file's // want comments line for line.
func runFixture(t *testing.T, a *Analyzer, fixture, pkgPath string) {
	t.Helper()
	src, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, fixture, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	files := []*ast.File{f}
	pkg, info, err := CheckFiles(fset, pkgPath, files, StdImporter(fset))
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	diags := runPackage([]*Analyzer{a}, &Package{
		Dir:   filepath.Dir(fixture),
		Path:  pkgPath,
		Fset:  fset,
		Files: files,
		Types: pkg,
		Info:  info,
	}, knownNames([]*Analyzer{a}), nil)

	wants := map[int][]string{}
	for i, line := range strings.Split(string(src), "\n") {
		for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
			wants[i+1] = append(wants[i+1], m[1])
		}
	}

	got := map[int][]string{}
	for _, d := range diags {
		got[d.Pos.Line] = append(got[d.Pos.Line], d.Message)
	}

	for line, subs := range wants {
		msgs := got[line]
		for _, sub := range subs {
			found := false
			for _, msg := range msgs {
				if strings.Contains(msg, sub) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s:%d: want finding containing %q, got %v", fixture, line, sub, msgs)
			}
		}
	}
	for line, msgs := range got {
		if len(wants[line]) == 0 {
			t.Errorf("%s:%d: unexpected finding(s): %v", fixture, line, msgs)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("diagnostic: %s", d)
		}
	}
}

// fixturePath returns testdata/<analyzer>/<name>.
func fixturePath(analyzer, name string) string {
	return filepath.Join("testdata", analyzer, name)
}

// fixtureDiags type-checks a fixture under pkgPath and returns the raw
// findings without matching // want expectations — for scope tests that
// assert an analyzer stays silent on out-of-scope packages.
func fixtureDiags(t *testing.T, a *Analyzer, fixture, pkgPath string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, fixture, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	files := []*ast.File{f}
	pkg, info, err := CheckFiles(fset, pkgPath, files, StdImporter(fset))
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	return runPackage([]*Analyzer{a}, &Package{
		Dir: filepath.Dir(fixture), Path: pkgPath, Fset: fset, Files: files, Types: pkg, Info: info,
	}, knownNames([]*Analyzer{a}), nil)
}

func TestFixtureFilesCompile(t *testing.T) {
	// Every fixture must at least parse; runFixture type-checks the ones
	// the analyzer tests exercise. This sweep catches stray files.
	err := filepath.WalkDir("testdata", func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		fset := token.NewFileSet()
		if _, perr := parser.ParseFile(fset, p, nil, parser.ParseComments); perr != nil {
			return fmt.Errorf("fixture %s does not parse: %w", p, perr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
