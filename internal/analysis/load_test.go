package analysis

import (
	"path/filepath"
	"runtime"
	"testing"
)

// repoRoot finds the module root from this source file's location.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// TestLoadModule loads and type-checks the entire repo through the
// stdlib-only loader — the same path cmd/filllint takes — and sanity
// checks the package set. Skipped under -short: it type-checks every
// stdlib dependency from source.
func TestLoadModule(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	pkgs, err := LoadModule(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
		if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
			t.Errorf("package %s loaded incompletely", p.Path)
		}
	}
	for _, want := range []string{
		"dummyfill",
		"dummyfill/internal/fill",
		"dummyfill/internal/mcf",
		"dummyfill/internal/geom",
		"dummyfill/internal/analysis",
		"dummyfill/cmd/filllint",
	} {
		if byPath[want] == nil {
			t.Errorf("package %s not loaded", want)
		}
	}
	// Dependency order: every module-local import precedes its importer.
	loaded := map[string]bool{}
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			if byPath[imp.Path()] != nil && !loaded[imp.Path()] {
				t.Errorf("%s loaded before its import %s", p.Path, imp.Path())
			}
		}
		loaded[p.Path] = true
	}
	// Test packages and testdata must not leak into the load.
	for _, p := range pkgs {
		if filepath.Base(p.Dir) == "testdata" {
			t.Errorf("testdata package loaded: %s", p.Path)
		}
	}
}
