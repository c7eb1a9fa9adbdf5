package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// committedReports are the BENCH_*.json files at the repository root.
func committedReports(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 5 {
		t.Fatalf("found %d committed reports, want at least BENCH_1..5", len(paths))
	}
	return paths
}

// TestCompareSelfIsClean compares every committed report with itself:
// each row must pair with its own copy — multi-topology and ECO rows
// included — so the comparison passes with every row at 1.00x.
func TestCompareSelfIsClean(t *testing.T) {
	for _, path := range committedReports(t) {
		t.Run(filepath.Base(path), func(t *testing.T) {
			var out strings.Builder
			if err := runCompare(&out, path, path); err != nil {
				t.Fatalf("self-compare failed: %v\n%s", err, out.String())
			}
			var doc Output
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			keys := make(map[string]bool)
			for _, d := range doc.Designs {
				if keys[rowKey(d)] {
					t.Fatalf("two rows share key %s", rowKey(d))
				}
				keys[rowKey(d)] = true
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if len(lines) != 1+len(doc.Designs) {
				t.Fatalf("got %d table lines for %d rows:\n%s", len(lines), len(doc.Designs), out.String())
			}
			for _, line := range lines[1:] {
				f := strings.Fields(line)
				if len(f) != 8 || f[3] != "1.00x" || f[6] != "1.00x" || f[7] != "+0.0000" {
					t.Errorf("row not at 1.00x: %q", line)
				}
			}
		})
	}
}

// TestCompareFlagsQualityDrop lowers one row's quality in a copy of a
// multi-row report: the comparison must fail and name that row.
func TestCompareFlagsQualityDrop(t *testing.T) {
	for _, path := range committedReports(t) {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc Output
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			last := len(doc.Designs) - 1
			doc.Designs[last].Quality -= 0.01
			worse, err := json.Marshal(&doc)
			if err != nil {
				t.Fatal(err)
			}
			newPath := filepath.Join(t.TempDir(), "worse.json")
			if err := os.WriteFile(newPath, worse, 0o644); err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			err = runCompare(&out, path, newPath)
			if err == nil {
				t.Fatalf("quality drop not flagged:\n%s", out.String())
			}
			want := fmt.Sprintf("row %s quality regressed", rowKey(doc.Designs[last]))
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name the lowered row (%s)", err, want)
			}
		})
	}
}
