package dummyfill_test

import (
	"bytes"
	"testing"

	dummyfill "dummyfill"
)

// fuzzLayout builds a small two-layer layout for seeding format fuzzing.
func fuzzLayout() *dummyfill.Layout {
	return &dummyfill.Layout{
		Name:   "fuzz",
		Die:    dummyfill.R(0, 0, 100, 100),
		Window: 25,
		Rules:  dummyfill.Rules{MinWidth: 2, MinSpace: 1, MinArea: 4, MaxFillDim: 20},
		Layers: []*dummyfill.Layer{
			{
				Wires:       []dummyfill.Rect{dummyfill.R(10, 10, 40, 14), dummyfill.R(60, 20, 64, 80)},
				FillRegions: []dummyfill.Rect{dummyfill.R(20, 40, 50, 70)},
			},
			{
				Wires: []dummyfill.Rect{dummyfill.R(5, 5, 95, 9)},
			},
		},
	}
}

// Text layouts that break the fill-region contract of Layout.Validate,
// and one that keeps it with abutting regions under an odd MinSpace.
const (
	fuzzOverlappingRegions = "layout ov\ndie 0 0 100 100\nwindow 50\nrules 2 1 4 20\n" +
		"layer 0\nwire 0 0 45 45\nregion 68 4 75 12\nregion 68 7 89 20\nlayer 1\nwire 0 0 45 45\n"
	fuzzRegionNearWire = "layout nw\ndie 0 0 100 100\nwindow 50\nrules 2 1 4 20\n" +
		"layer 0\nwire 10 10 20 90\nregion 20 10 45 90\nwire 55 55 95 95\nlayer 1\n"
	fuzzAbuttingRegions = "layout ab\ndie 0 0 100 100\nwindow 50\nrules 2 1 4 20\n" +
		"layer 0\nwire 5 5 9 95\nregion 10 10 50 90\nregion 50 10 90 90\n" +
		"layer 1\nwire 10 50 90 54\nregion 10 10 90 49\nregion 10 55 50 90\nregion 50 55 90 90\n"
)

// FuzzReadLayout exercises the format-sniffing ingest path with arbitrary
// byte streams: any input must yield a validated layout or a clean error,
// never a panic, regardless of which format the sniffer picks. A small
// layout that parses must also fill DRC-clean: Validate's fill-region
// contract is what makes candidates legal by construction.
// Run with `go test -fuzz FuzzReadLayout .` for deep exploration; plain
// `go test` replays the seed corpus.
func FuzzReadLayout(f *testing.F) {
	lay := fuzzLayout()
	sol := &dummyfill.Solution{Fills: []dummyfill.Fill{{Layer: 0, Rect: dummyfill.R(22, 42, 30, 50)}}}

	var gds bytes.Buffer
	if err := dummyfill.WriteGDS(&gds, lay, sol); err != nil {
		f.Fatal(err)
	}
	f.Add(gds.Bytes())
	var oas bytes.Buffer
	if err := dummyfill.WriteOASIS(&oas, lay, sol); err != nil {
		f.Fatal(err)
	}
	f.Add(oas.Bytes())
	var txt bytes.Buffer
	if err := dummyfill.WriteTextLayout(&txt, lay); err != nil {
		f.Fatal(err)
	}
	f.Add(txt.Bytes())
	var txtSol bytes.Buffer
	if err := dummyfill.WriteTextSolution(&txtSol, "fuzz", sol); err != nil {
		f.Fatal(err)
	}
	f.Add(txtSol.Bytes())
	var def bytes.Buffer
	if err := dummyfill.WriteDEFLayout(&def, lay, sol); err != nil {
		f.Fatal(err)
	}
	f.Add(def.Bytes())
	f.Add([]byte{})
	f.Add([]byte("layout x\n"))
	f.Add([]byte("# comment only\n"))
	f.Add(gds.Bytes()[:8])
	f.Add(oas.Bytes()[:16])
	// Text directives with hostile layer ids (layer-cap path).
	f.Add([]byte("solution s\nfill 999999999 0 0 1 1\n"))
	// DEF seeds: a tiny well-formed deck, truncations, hostile counts, and
	// a filler component with no ROW to size it against.
	f.Add([]byte("VERSION 5.8 ;\nDESIGN d ;\nDIEAREA ( 0 0 ) ( 100 100 ) ;\n" +
		"ROW r cs 0 0 N DO 10 BY 2 STEP 10 50 ;\nCOMPONENTS 1 ;\n" +
		"- fill_0 FILL_X1 + PLACED ( 0 0 ) N ;\nEND COMPONENTS\nEND DESIGN\n"))
	f.Add([]byte("DIEAREA ( 0 0 ) ( 10"))
	f.Add([]byte("# def deck\nVERSION 5.8 ;\nEND DESIGN\n"))
	f.Add([]byte("COMPONENTS 999999999 ;\n- f FILL_X99 + PLACED ( 0 0 ) N ;\n"))
	f.Add([]byte("ROW r cs 0 0 N DO 9999999999 BY 9999999999 STEP 1 1 ;\nCOMPONENTS 0 ;\n"))

	rules := dummyfill.Rules{MinWidth: 2, MinSpace: 1, MinArea: 4}
	read := func(data []byte) (*dummyfill.Layout, error) {
		return dummyfill.ReadLayout(bytes.NewReader(data), dummyfill.IngestOptions{Rules: rules})
	}
	for _, seed := range []struct {
		text    string
		wantErr bool
	}{
		{fuzzOverlappingRegions, true},
		{fuzzRegionNearWire, true},
		{fuzzAbuttingRegions, false},
	} {
		if _, err := read([]byte(seed.text)); (err != nil) != seed.wantErr {
			f.Fatalf("ReadLayout(%q) error = %v, want error %v", seed.text, err, seed.wantErr)
		}
		f.Add([]byte(seed.text))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := read(data)
		if err != nil {
			return
		}
		if got == nil {
			t.Fatal("nil layout without error")
		}
		// A layout that parsed cleanly must re-emit in the text format
		// (the round-trip writer rejects nothing a Validate pass allows).
		if werr := dummyfill.WriteTextLayout(&bytes.Buffer{}, got); werr != nil {
			t.Fatalf("re-emit of parsed layout failed: %v", werr)
		}
		// Small means at most 64 windows; bounding each axis first keeps
		// the product from overflowing on a hostile die.
		g, err := got.Grid()
		if err != nil || g.NX < 1 || g.NY < 1 || g.NX > 64 || g.NY > 64 || g.NumWindows() > 64 {
			return
		}
		shapes := 0
		for _, l := range got.Layers {
			shapes += len(l.Wires) + len(l.FillRegions)
		}
		if shapes > 512 {
			return
		}
		opts := dummyfill.DefaultOptions()
		opts.Workers = 1
		res, err := dummyfill.Insert(got, opts)
		if err != nil {
			return
		}
		if vs := dummyfill.CheckDRC(got, &res.Solution); len(vs) > 0 {
			t.Fatalf("%d DRC violations filling a validated layout, first: %v", len(vs), vs[0])
		}
	})
}
