package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module for the CLI to analyze:
// package a exports a fragile function and an annotated sink, package b
// discards both errors. Exactly one finding (the fragile discard) when
// dirty is true; none when it handles the error instead.
func writeModule(t *testing.T, dirty bool) string {
	t.Helper()
	root := t.TempDir()
	drop := "func Drop() error {\n\ta.Accounted()\n\treturn a.Fail()\n}\n"
	if dirty {
		drop = "func Drop() {\n\ta.Fail()\n\ta.Accounted()\n}\n"
	}
	files := map[string]string{
		"go.mod": "module tmod\n\ngo 1.22\n",
		"a/a.go": "package a\n\nimport \"errors\"\n\nfunc Fail() error { return errors.New(\"x\") }\n\n// Accounted tracks its own failures.\n//\n//filllint:errsink\nfunc Accounted() error { return nil }\n",
		"b/b.go": "package b\n\nimport \"tmod/a\"\n\n" + drop,
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

// lint invokes the CLI entry point directly and returns (exit, stdout, stderr).
func lint(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitTaxonomy(t *testing.T) {
	clean := writeModule(t, false)
	if code, out, stderr := lint(t, "-C", clean); code != 0 {
		t.Fatalf("clean module: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, stderr)
	}

	dirty := writeModule(t, true)
	code, out, _ := lint(t, "-C", dirty)
	if code != 1 {
		t.Fatalf("dirty module: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "Fail") || strings.Contains(out, "Accounted") {
		t.Fatalf("findings should name Fail and spare the annotated Accounted:\n%s", out)
	}

	if code, _, _ := lint(t, "-C", dirty, "-analyzers", "nosuch"); code != 2 {
		t.Fatalf("unknown analyzer: exit %d, want 2", code)
	}
	if code, _, _ := lint(t, "-C", t.TempDir()); code != 2 {
		t.Fatalf("-C outside any module: exit %d, want 2", code)
	}
	if code, _, _ := lint(t, "-C", dirty, "./a/.../b"); code != 2 {
		t.Fatalf("unsupported pattern: exit %d, want 2", code)
	}
}

func TestPackageFilterScopesFindings(t *testing.T) {
	dirty := writeModule(t, true)
	if code, out, _ := lint(t, "-C", dirty, "./a"); code != 0 || strings.TrimSpace(out) != "" {
		t.Fatalf("filter ./a should hide b's finding: exit %d\n%s", code, out)
	}
	if code, out, _ := lint(t, "-C", dirty, "./b"); code != 1 || !strings.Contains(out, "Fail") {
		t.Fatalf("filter ./b should keep the finding: exit %d\n%s", code, out)
	}
}

// TestJSONDeterministicAcrossParallel is the output contract: two runs
// over the same tree print byte-identical -json.
func TestJSONDeterministicAcrossParallel(t *testing.T) {
	dirty := writeModule(t, true)
	var want string
	for run := 0; run < 2; run++ {
		code, out, stderr := lint(t, "-C", dirty, "-json")
		if code != 1 {
			t.Fatalf("run %d: exit %d\n%s", run, code, stderr)
		}
		if !strings.Contains(stderr, "filllint: packages=2 findings=1") {
			t.Fatalf("run %d: stats line: %s", run, stderr)
		}
		if run == 0 {
			want = out
		} else if out != want {
			t.Fatalf("run %d output differs:\n%s\nwant:\n%s", run, out, want)
		}
	}
}
