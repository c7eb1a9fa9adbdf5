package gdsii

import (
	"io"
	"strings"
	"testing"

	"dummyfill/internal/geom"
)

// TestWriterRejectsOverflow: coordinates beyond the 4-byte XY field and
// layers beyond the 2-byte LAYER field must fail loudly, not truncate
// silently into a corrupted (but well-formed) stream.
func TestWriterRejectsOverflow(t *testing.T) {
	open := func(t *testing.T) *StreamWriter {
		t.Helper()
		sw := NewStreamWriter(io.Discard)
		if err := sw.BeginLibrary("LIB"); err != nil {
			t.Fatal(err)
		}
		if err := sw.BeginStructure("TOP"); err != nil {
			t.Fatal(err)
		}
		return sw
	}

	cases := []struct {
		name    string
		write   func(sw *StreamWriter) error
		wantSub string
	}{
		{
			"rect coordinate overflow",
			func(sw *StreamWriter) error {
				return sw.WriteRect(0, 0, geom.Rect{XL: 0, YL: 0, XH: 1 << 32, YH: 10})
			},
			"XY field",
		},
		{
			"boundary point overflow",
			func(sw *StreamWriter) error {
				return sw.WriteBoundary(Boundary{Layer: 0, Pts: []geom.Point{
					{X: 0, Y: 0}, {X: 1 << 33, Y: 0}, {X: 0, Y: 5},
				}})
			},
			"XY field",
		},
		{
			"layer overflow",
			func(sw *StreamWriter) error {
				return sw.WriteRect(1<<16, 0, geom.Rect{XL: 0, YL: 0, XH: 1, YH: 1})
			},
			"LAYER field",
		},
		{
			"datatype overflow",
			func(sw *StreamWriter) error {
				return sw.WriteRect(0, 1<<20, geom.Rect{XL: 0, YL: 0, XH: 1, YH: 1})
			},
			"DATATYPE field",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sw := open(t)
			err := c.write(sw)
			if err == nil {
				t.Fatalf("%s: overflow not rejected", c.name)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("%s: error %q does not mention %q", c.name, err, c.wantSub)
			}
		})
	}

	// In-range extremes still write fine.
	sw := open(t)
	if err := sw.WriteRect(1<<15-1, 0, geom.Rect{XL: -1 << 31, YL: -1 << 31, XH: 1<<31 - 1, YH: 1<<31 - 1}); err != nil {
		t.Fatalf("in-range extreme rect rejected: %v", err)
	}
	if err := sw.EndStructure(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
}
