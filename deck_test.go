package dummyfill_test

import (
	"bytes"
	"testing"

	dummyfill "dummyfill"
	"dummyfill/internal/layio"
	"dummyfill/internal/oasis"
)

// goldenSolutionDeck pins the SHA-256 of the fills-only solution deck in
// every registered format: gds, oasis (modal-reuse sorted) and text on
// the tiny design's rect-mode solution, def on the row design's
// site-mode solution at pad 1. These are the decks fillgen writes in
// batch mode; GDSSize measures the gds one, and fillserved returns the
// same deck kind in window order.
var goldenSolutionDeck = map[string]string{
	"gds":   "282f9b9ce8af641d03531387fb792e01417b0731c5571d0d762fefdc132df0eb",
	"oasis": "c79216ee6041f797533d5a5cc7913c3e8daa6fea609d8ff3d6e6c9db8bc59b2e",
	"text":  "c25757d86f0f33e089559753da255147ebebc0ab50cf6abdd5ba3b31ce933c8b",
	"def":   "b3aa59eef413f0b376d622f4d0cb3f41b1cd92def6f7f74a0786a86dc6b54913",
}

func TestGoldenSolutionDeckHashes(t *testing.T) {
	tiny, _, err := dummyfill.GenerateBenchmark("tiny")
	if err != nil {
		t.Fatal(err)
	}
	tinyRes, err := dummyfill.Insert(tiny, dummyfill.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	row, _, err := dummyfill.GenerateBenchmark("row")
	if err != nil {
		t.Fatal(err)
	}
	rowRes, err := dummyfill.Insert(row, siteOptions(0, nil))
	if err != nil {
		t.Fatal(err)
	}
	for format, want := range goldenSolutionDeck {
		lay, sol := tiny, &tinyRes.Solution
		switch format {
		case "oasis":
			sol = &dummyfill.Solution{Fills: oasis.ModalSorted(sol.Fills)}
		case "def":
			lay, sol = row, &rowRes.Solution
		}
		f, err := layio.Lookup(format)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := layio.WriteDeck(&buf, f, layio.SolutionDeck, lay, sol); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if got := sha(buf.Bytes()); got != want {
			t.Errorf("%s: solution deck hash %s, want %s", format, got, want)
		}
		if format == "gds" {
			if n, err := dummyfill.GDSSize(lay, sol); err != nil || n != int64(buf.Len()) {
				t.Errorf("GDSSize = %d, %v; the deck is %d bytes", n, err, buf.Len())
			}
		}
	}
}
