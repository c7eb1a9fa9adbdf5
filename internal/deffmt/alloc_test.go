package deffmt

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"dummyfill/internal/geom"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
)

// maxReadAllocPerDeckByte and maxWriteAllocPerShape cap DEF I/O
// allocation on the deck of rowDeckShapes. The reader tokenizes each
// line in place and allocates nothing per line, about 0.03 B per deck
// byte in all; splitting lines into strings cost about 10. The writer
// keeps each formatted component line, about 53 B per shape here;
// buffering shapes for fmt at Close cost about 330.
const (
	maxReadAllocPerDeckByte = 0.5
	maxWriteAllocPerShape   = 80
)

// allocBytes runs f and returns its cumulative allocation in bytes.
func allocBytes(f func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// rowDeckShapes returns a row design's header and components: per row,
// cells of 1–8 sites with fillers of library widths in the gaps.
func rowDeckShapes() (layio.Header, []layio.Shape) {
	sg := &layout.SiteGrid{SiteW: 200, RowH: 2000, Rows: 300, Sites: 600}
	rng := rand.New(rand.NewSource(1))
	var shapes []layio.Shape
	for r := 0; r < sg.Rows; r++ {
		y := int64(r) * sg.RowH
		for s := 0; s < sg.Sites; {
			w := min(1+rng.Intn(8), sg.Sites-s)
			x := int64(s) * sg.SiteW
			dt := layio.DatatypeWire
			if rng.Intn(2) == 0 {
				dt, w = layio.DatatypeFill, 1<<rng.Intn(3)
				w = min(w, sg.Sites-s)
			}
			shapes = append(shapes, layio.Shape{Layer: 0, Datatype: dt, Rect: geom.R(x, y, x+int64(w)*sg.SiteW, y+sg.RowH)})
			s += w
		}
	}
	return layio.Header{Name: "rows", Sites: sg}, shapes
}

func writeDeck(t *testing.T, w io.Writer, h layio.Header, shapes []layio.Shape) {
	t.Helper()
	sw, err := NewShapeWriter(w, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shapes {
		if err := sw.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDEFReadAllocPerDeckByte guards the in-place tokenizer: reading a
// row deck must not allocate per line or per token.
func TestDEFReadAllocPerDeckByte(t *testing.T) {
	h, shapes := rowDeckShapes()
	var deck bytes.Buffer
	writeDeck(t, &deck, h, shapes)
	n := 0
	alloc := allocBytes(func() {
		sr := NewShapeReader(bytes.NewReader(deck.Bytes()), layio.DefaultLimits())
		for {
			if _, err := sr.Next(); err != nil {
				if err != io.EOF {
					t.Error(err)
				}
				return
			}
			n++
		}
	})
	if n != len(shapes) {
		t.Fatalf("read %d shapes, wrote %d", n, len(shapes))
	}
	perByte := float64(alloc) / float64(deck.Len())
	t.Logf("deck %d bytes, %d shapes: read allocated %d B (%.3f B per deck byte)", deck.Len(), n, alloc, perByte)
	if perByte > maxReadAllocPerDeckByte {
		t.Fatalf("DEF read allocated %.3f B per deck byte, want ≤ %g", perByte, float64(maxReadAllocPerDeckByte))
	}
}

// TestDEFWriteAllocPerShape guards the chunked writer: Write plus Close
// must allocate about the deck's own size, not a buffered shape and fmt
// strings per component.
func TestDEFWriteAllocPerShape(t *testing.T) {
	h, shapes := rowDeckShapes()
	alloc := allocBytes(func() { writeDeck(t, io.Discard, h, shapes) })
	perShape := float64(alloc) / float64(len(shapes))
	t.Logf("%d shapes: write allocated %d B (%.1f B per shape)", len(shapes), alloc, perShape)
	if perShape > maxWriteAllocPerShape {
		t.Fatalf("DEF write allocated %.1f B per shape, want ≤ %d", perShape, maxWriteAllocPerShape)
	}
}
