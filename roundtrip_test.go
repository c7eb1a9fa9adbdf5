package dummyfill_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"sort"
	"testing"

	dummyfill "dummyfill"
	"dummyfill/internal/layio"
)

// goldenStream pins the SHA-256 of the streaming writers' output (and the
// barrier OASIS writer's) per design, recorded before the layio registry
// refactor. The refactor's contract is byte-identical streams; drift here
// is a regression unless the hashes are deliberately re-recorded with a
// change that justifies it. (The barrier GDS goldens live in
// determinism_test.go.)
var goldenStream = map[string]struct{ streamGDS, streamOASIS, barrierOASIS string }{
	"tiny": {
		streamGDS:    "ec07ae6c07842bb42c6c915edab0a874e4f5dc9ff17117797b45092450feabc6",
		streamOASIS:  "46531af703cff9c35b6433d543881ac530e1abc906e9bde87cefc135e9c0ce1f",
		barrierOASIS: "c79216ee6041f797533d5a5cc7913c3e8daa6fea609d8ff3d6e6c9db8bc59b2e",
	},
	"s": {
		streamGDS:    "a9509a1c4338ce847a37a2263b8242a77d68838a95ddac731358a82119e96cc1",
		streamOASIS:  "6e74f0e235b00428977235de8204003ac53c01c4135edada9766f1de8ef67821",
		barrierOASIS: "f45e3b613b3b0484d65fc21ca0e938ba873f0f88a218be1dd412044b1120709b",
	},
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestGoldenStreamHashes runs the streaming emitters through the layio
// registry path and checks the output against the pre-refactor hashes.
func TestGoldenStreamHashes(t *testing.T) {
	for _, design := range []string{"tiny", "s"} {
		design := design
		t.Run(design, func(t *testing.T) {
			want := goldenStream[design]
			lay, _, err := dummyfill.GenerateBenchmark(design)
			if err != nil {
				t.Fatal(err)
			}
			opts := dummyfill.DefaultOptions()
			opts.Workers = 4
			var g, o bytes.Buffer
			if _, err := dummyfill.InsertStreamTo(context.Background(), &g, lay, opts, "gds"); err != nil {
				t.Fatal(err)
			}
			if got := sha(g.Bytes()); got != want.streamGDS {
				t.Errorf("streamGDS hash %s, want %s", got, want.streamGDS)
			}
			if _, err := dummyfill.InsertStreamTo(context.Background(), &o, lay, opts, "oasis"); err != nil {
				t.Fatal(err)
			}
			if got := sha(o.Bytes()); got != want.streamOASIS {
				t.Errorf("streamOASIS hash %s, want %s", got, want.streamOASIS)
			}
			res, err := dummyfill.Insert(lay, opts)
			if err != nil {
				t.Fatal(err)
			}
			var ob bytes.Buffer
			if err := dummyfill.WriteOASIS(&ob, lay, &res.Solution); err != nil {
				t.Fatal(err)
			}
			if got := sha(ob.Bytes()); got != want.barrierOASIS {
				t.Errorf("barrierOASIS hash %s, want %s", got, want.barrierOASIS)
			}
		})
	}
}

// readShapes drains a deck through the registered reader of format,
// returning its per-layer wire and fill rectangles.
func readShapes(t *testing.T, data []byte, format string) (wires, fills map[int][]dummyfill.Rect) {
	t.Helper()
	f, err := layio.Lookup(format)
	if err != nil {
		t.Fatal(err)
	}
	sr := f.NewShapeReader(bytes.NewReader(data), f.Limits)
	wires, fills = map[int][]dummyfill.Rect{}, map[int][]dummyfill.Rect{}
	for {
		s, err := sr.Next()
		if err == io.EOF {
			return wires, fills
		}
		if err != nil {
			t.Fatal(err)
		}
		switch s.Datatype {
		case layio.DatatypeWire:
			wires[s.Layer] = append(wires[s.Layer], s.Rect)
		case layio.DatatypeFill:
			fills[s.Layer] = append(fills[s.Layer], s.Rect)
		}
	}
}

// sortedWires canonicalizes a layer's wire set for comparison.
func sortedWires(rs []dummyfill.Rect) []dummyfill.Rect {
	out := append([]dummyfill.Rect(nil), rs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.XL != b.XL {
			return a.XL < b.XL
		}
		if a.YL != b.YL {
			return a.YL < b.YL
		}
		if a.XH != b.XH {
			return a.XH < b.XH
		}
		return a.YH < b.YH
	})
	return out
}

// TestCrossFormatRoundTrip writes one layout's wire deck in every
// registered format and reads each back through the sniffing ReadLayout
// and the explicit ReadLayoutFormat. All three formats must reconstruct
// the same die and per-layer wire sets.
func TestCrossFormatRoundTrip(t *testing.T) {
	lay, _, err := dummyfill.GenerateBenchmark("tiny")
	if err != nil {
		t.Fatal(err)
	}
	opts := dummyfill.IngestOptions{Die: lay.Die, Window: lay.Window, Rules: lay.Rules}

	encode := map[string]func(*dummyfill.Layout) ([]byte, error){
		"gds": func(l *dummyfill.Layout) ([]byte, error) {
			var buf bytes.Buffer
			err := dummyfill.WriteGDS(&buf, l, nil)
			return buf.Bytes(), err
		},
		// OASIS decks in this subset carry fills only, so the wires are
		// written as datatype-0 shapes through the registered writer.
		"oasis": func(l *dummyfill.Layout) ([]byte, error) {
			f, err := layio.Lookup("oasis")
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			sw, err := f.NewShapeWriter(&buf, layio.Header{Name: l.Name})
			if err != nil {
				return nil, err
			}
			for li, layer := range l.Layers {
				for _, w := range layer.Wires {
					if err := sw.Write(layio.Shape{Layer: li, Datatype: layio.DatatypeWire, Rect: w}); err != nil {
						return nil, err
					}
				}
			}
			err = sw.Close()
			return buf.Bytes(), err
		},
		"text": func(l *dummyfill.Layout) ([]byte, error) {
			var buf bytes.Buffer
			err := dummyfill.WriteTextLayout(&buf, l)
			return buf.Bytes(), err
		},
		// DEF encodes every wire as a placed component whose master name
		// carries its geometry, so arbitrary multi-layer layouts survive
		// the single-layer placement grammar.
		"def": func(l *dummyfill.Layout) ([]byte, error) {
			var buf bytes.Buffer
			err := dummyfill.WriteDEFLayout(&buf, l, nil)
			return buf.Bytes(), err
		},
	}
	for _, format := range dummyfill.Formats() {
		format := format
		enc, ok := encode[format]
		if !ok {
			t.Fatalf("registered format %q has no round-trip encoder in this test", format)
		}
		t.Run(format, func(t *testing.T) {
			data, err := enc(lay)
			if err != nil {
				t.Fatal(err)
			}
			sniffed, err := dummyfill.ReadLayout(bytes.NewReader(data), opts)
			if err != nil {
				t.Fatalf("ReadLayout (auto): %v", err)
			}
			explicit, err := dummyfill.ReadLayoutFormat(bytes.NewReader(data), format, opts)
			if err != nil {
				t.Fatalf("ReadLayoutFormat(%q): %v", format, err)
			}
			for _, got := range []*dummyfill.Layout{sniffed, explicit} {
				if got.Die != lay.Die {
					t.Fatalf("die %v, want %v", got.Die, lay.Die)
				}
				if len(got.Layers) != len(lay.Layers) {
					t.Fatalf("%d layers, want %d", len(got.Layers), len(lay.Layers))
				}
				for li := range lay.Layers {
					a := sortedWires(got.Layers[li].Wires)
					b := sortedWires(lay.Layers[li].Wires)
					if len(a) != len(b) {
						t.Fatalf("layer %d: %d wires, want %d", li, len(a), len(b))
					}
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("layer %d wire %d: %v, want %v", li, i, a[i], b[i])
						}
					}
				}
			}
		})
	}
}

// TestStreamWriterReadBack closes the loop on the stream writers: decks
// produced by InsertStreamTo in gds and oasis must re-read through the
// streaming readers to exactly the barrier path's wire and fill sets.
func TestStreamWriterReadBack(t *testing.T) {
	lay, _, err := dummyfill.GenerateBenchmark("tiny")
	if err != nil {
		t.Fatal(err)
	}
	opts := dummyfill.DefaultOptions()
	opts.Workers = 4
	res, err := dummyfill.Insert(lay, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantFills := map[dummyfill.Fill]bool{}
	for _, f := range res.Solution.Fills {
		wantFills[f] = true
	}

	// GDSII stream: wires (datatype 0) plus fills (datatype 1).
	var g bytes.Buffer
	if _, err := dummyfill.InsertStreamTo(context.Background(), &g, lay, opts, "gds"); err != nil {
		t.Fatal(err)
	}
	wires, fills, err := dummyfill.ReadGDSShapes(bytes.NewReader(g.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for li, layer := range lay.Layers {
		a, b := sortedWires(wires[li]), sortedWires(layer.Wires)
		if len(a) != len(b) {
			t.Fatalf("layer %d: streamed deck re-read %d wires, want %d", li, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("layer %d wire %d: %v, want %v", li, i, a[i], b[i])
			}
		}
	}
	nf := 0
	for li, rs := range fills {
		for _, r := range rs {
			nf++
			if !wantFills[dummyfill.Fill{Layer: li, Rect: r}] {
				t.Fatalf("streamed GDS carries fill %d/%v not in the barrier solution", li, r)
			}
		}
	}
	if nf != len(res.Solution.Fills) {
		t.Fatalf("streamed GDS re-read %d fills, barrier solution has %d", nf, len(res.Solution.Fills))
	}

	// OASIS stream: fills only.
	var o bytes.Buffer
	if _, err := dummyfill.InsertStreamTo(context.Background(), &o, lay, opts, "oasis"); err != nil {
		t.Fatal(err)
	}
	owires, ofills := readShapes(t, o.Bytes(), "oasis")
	if len(owires) != 0 {
		t.Fatalf("streamed OASIS carries wires on %d layers, want fills only", len(owires))
	}
	nf = 0
	for li, rs := range ofills {
		for _, r := range rs {
			nf++
			if !wantFills[dummyfill.Fill{Layer: li, Rect: r}] {
				t.Fatalf("streamed OASIS carries fill %d/%v not in the barrier solution", li, r)
			}
		}
	}
	if nf != len(res.Solution.Fills) {
		t.Fatalf("streamed OASIS re-read %d fills, barrier solution has %d", nf, len(res.Solution.Fills))
	}
}

// TestReadLayoutUnknownFormat checks the error surfaces of the
// format-agnostic entry points: unsniffable bytes and unknown names.
func TestReadLayoutUnknownFormat(t *testing.T) {
	if _, err := dummyfill.ReadLayout(bytes.NewReader([]byte("\x00\x01garbage")), dummyfill.IngestOptions{}); err == nil {
		t.Fatal("ReadLayout accepted unsniffable input")
	}
	if _, err := dummyfill.ReadLayoutFormat(bytes.NewReader(nil), "dxf", dummyfill.IngestOptions{}); err == nil {
		t.Fatal("ReadLayoutFormat accepted unknown format name")
	}
}

// TestInsertStreamToCancelledInPreamble checks that a cancelled context
// aborts InsertStreamTo while it is still writing the wire preamble —
// before the fill engine (which polls ctx itself) ever runs.
func TestInsertStreamToCancelledInPreamble(t *testing.T) {
	lay, _, err := dummyfill.GenerateBenchmark("tiny")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	_, err = dummyfill.InsertStreamTo(ctx, &buf, lay, dummyfill.DefaultOptions(), "gds")
	if err == nil {
		t.Fatal("InsertStreamTo ignored a cancelled context")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("context canceled")) {
		t.Fatalf("got %v, want context cancellation", err)
	}
	// Nothing past the library preamble may have been committed: the wire
	// loop checks ctx before the first record batch.
	if buf.Len() > 1024 {
		t.Fatalf("cancelled stream still wrote %d bytes", buf.Len())
	}
}
