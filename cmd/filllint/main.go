// Command filllint runs the repo's invariant analyzers (internal/analysis)
// over every package of the module and fails on any finding. It is the CI
// analysis gate behind the determinism, context-flow, pool, locking,
// goroutine-lifecycle, error-flow, narrowing and no-panic contracts; see
// DESIGN.md §10 and §15 for what each analyzer enforces and why.
//
// Usage:
//
//	filllint [-json] [-analyzers list] [-list] [-C dir] [packages]
//
// Packages may be "./..." (the default: the whole module) or
// module-relative package directories like ./internal/fill. The whole
// module is always analyzed (analyzers exchange facts across package
// boundaries); the patterns only select which packages' findings are
// reported. Findings are globally sorted, so output, plain or -json, is
// byte-for-byte the same on every run over the same tree.
//
// Exit status: 0 clean, 1 findings reported, 2 load or usage error.
//
// Every run prints a machine-readable accounting line to stderr:
//
//	filllint: packages=N findings=F
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dummyfill/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("filllint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	names := fs.String("analyzers", "", "comma-separated analyzers to run (default: all); prefix with - to disable instead")
	list := fs.Bool("list", false, "list available analyzers and exit")
	dir := fs.String("C", ".", "module root (directory containing go.mod)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := analysis.All()
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	enabled, err := selectAnalyzers(all, *names)
	if err != nil {
		fmt.Fprintln(stderr, "filllint:", err)
		return 2
	}

	root, err := findModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "filllint:", err)
		return 2
	}

	match, err := packageFilter(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "filllint:", err)
		return 2
	}

	found, npkgs, err := analysis.RunModule(root, enabled)
	if err != nil {
		fmt.Fprintln(stderr, "filllint:", err)
		return 2
	}

	diags := found[:0:0]
	for _, d := range found {
		if match(pkgDirOf(root, d.Pos.Filename)) {
			diags = append(diags, d)
		}
	}

	if *jsonOut {
		type jsonDiag struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]jsonDiag, len(diags))
		for i, d := range diags {
			out[i] = jsonDiag{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "filllint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}

	fmt.Fprintf(stderr, "filllint: packages=%d findings=%d\n", npkgs, len(diags))

	if len(diags) > 0 {
		return 1
	}
	return 0
}

// pkgDirOf maps a diagnostic's file back to its module-relative package
// dir for pattern matching.
func pkgDirOf(root, file string) string {
	rel, err := filepath.Rel(root, file)
	if err != nil {
		return file
	}
	return filepath.ToSlash(filepath.Dir(rel))
}

// selectAnalyzers resolves the -analyzers flag: empty means all, a plain
// list enables exactly those, a list of -prefixed names enables all but
// those. Mixing the two styles is an error.
func selectAnalyzers(all []*analysis.Analyzer, spec string) ([]*analysis.Analyzer, error) {
	if spec == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	parts := strings.Split(spec, ",")
	disable := strings.HasPrefix(strings.TrimSpace(parts[0]), "-")
	picked := map[string]bool{}
	for _, part := range parts {
		name := strings.TrimSpace(part)
		neg := strings.HasPrefix(name, "-")
		if neg != disable {
			return nil, fmt.Errorf("-analyzers mixes enable and disable entries in %q", spec)
		}
		name = strings.TrimPrefix(name, "-")
		if byName[name] == nil {
			return nil, fmt.Errorf("unknown analyzer %q (run -list)", name)
		}
		picked[name] = true
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if picked[a.Name] != disable {
			out = append(out, a)
		}
	}
	return out, nil
}

// packageFilter turns pattern args into a predicate over module-relative
// package dirs. No args or "./..." selects everything; "./dir/..."
// selects a subtree; "./dir" selects one package.
func packageFilter(patterns []string) (func(dir string) bool, error) {
	if len(patterns) == 0 {
		return func(string) bool { return true }, nil
	}
	type rule struct {
		dir  string
		tree bool
	}
	var rules []rule
	for _, pat := range patterns {
		p := filepath.ToSlash(pat)
		tree := false
		if strings.HasSuffix(p, "/...") {
			tree = true
			p = strings.TrimSuffix(p, "/...")
		}
		p = strings.TrimPrefix(p, "./")
		if p == "" || p == "." {
			return func(string) bool { return true }, nil
		}
		if strings.Contains(p, "...") {
			return nil, fmt.Errorf("unsupported pattern %q (use ./dir, ./dir/... or ./...)", pat)
		}
		rules = append(rules, rule{dir: p, tree: tree})
	}
	return func(dir string) bool {
		d := filepath.ToSlash(dir)
		for _, r := range rules {
			if d == r.dir || (r.tree && strings.HasPrefix(d, r.dir+"/")) {
				return true
			}
		}
		return false
	}, nil
}

// findModuleRoot walks up from dir to the directory containing go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}
