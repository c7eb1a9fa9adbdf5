package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module.
type Package struct {
	Dir   string // directory relative to the module root ("." for the root)
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// LoadModule parses and type-checks every non-test package under the
// module rooted at root and returns them in dependency order: every
// module-local import comes before its importers. It is a stdlib-only
// loader. Local imports resolve against the packages already checked,
// and everything else (the standard library) resolves through
// go/importer's source importer, so no compiled export data and no
// external tooling is required. Test files (_test.go) are not loaded:
// the invariants filllint enforces are about shipped engine code, and
// tests legitimately use wall clocks, randomness and panics.
func LoadModule(root string) ([]*Package, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	byPath := map[string]*Package{}
	imports := map[string][]string{}

	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		files, perr := parseDir(fset, p)
		if perr != nil {
			return perr
		}
		if len(files) == 0 {
			return nil
		}
		rel, rerr := filepath.Rel(root, p)
		if rerr != nil {
			return rerr
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		byPath[ip] = &Package{Dir: rel, Path: ip, Fset: fset, Files: files}
		for _, f := range files {
			for _, imp := range f.Imports {
				imports[ip] = append(imports[ip], strings.Trim(imp.Path.Value, `"`))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	order, err := topoOrder(byPath, imports)
	if err != nil {
		return nil, err
	}
	imp := &chainImporter{local: map[string]*types.Package{}, std: StdImporter(fset)}
	for _, p := range order {
		p.Types, p.Info, err = CheckFiles(fset, p.Path, p.Files, imp)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", p.Path, err)
		}
		imp.local[p.Path] = p.Types
	}
	return order, nil
}

// CheckFiles type-checks one package's files under the given import path,
// returning the package and the filled-in type info the analyzers need.
// Exported for the fixture-test harness, which checks single files under
// synthetic import paths to exercise package-scoped analyzers.
func CheckFiles(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// StdImporter returns a source-based importer for standard-library
// packages sharing fset. Exported for the fixture-test harness.
func StdImporter(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "source", nil)
}

// chainImporter serves module-local packages from the checked set and
// delegates everything else to the stdlib source importer.
type chainImporter struct {
	local map[string]*types.Package
	std   types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.local[path]; ok {
		return p, nil
	}
	return c.std.Import(path)
}

// parseDir parses the non-test, non-ignored .go files directly inside dir
// (no recursion). It returns no files when dir holds no Go files.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, perr := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if perr != nil {
			return nil, perr
		}
		if buildIgnored(f) {
			continue
		}
		files = append(files, f)
	}
	return files, nil
}

// buildIgnored reports whether f carries a "//go:build ignore" constraint.
func buildIgnored(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.End() >= f.Package {
			break
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if strings.HasPrefix(text, "//go:build") && strings.Contains(text, "ignore") {
				return true
			}
		}
	}
	return false
}

// topoOrder orders the packages so every local dependency precedes its
// dependents, failing on import cycles. Ties break by import path, so
// the order is the same on every run.
func topoOrder(pkgs map[string]*Package, imports map[string][]string) ([]*Package, error) {
	keys := make([]string, 0, len(pkgs))
	for k := range pkgs {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make(map[string]int, len(pkgs))
	var order []*Package
	var visit func(string) error
	visit = func(k string) error {
		switch state[k] {
		case gray:
			return fmt.Errorf("import cycle through %s", k)
		case black:
			return nil
		}
		state[k] = gray
		deps := imports[k]
		sort.Strings(deps)
		for _, q := range deps {
			if pkgs[q] == nil {
				continue
			}
			if err := visit(q); err != nil {
				return err
			}
		}
		state[k] = black
		order = append(order, pkgs[k])
		return nil
	}
	for _, k := range keys {
		if err := visit(k); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// modulePath reads the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}
