// Command gdscat inspects GDSII files:
//
//	gdscat file.gds              # library summary
//	gdscat -layers file.gds      # per-layer shape/area breakdown
//
// Only BOUNDARY elements are modeled; other record types are skipped.
// Polygons are decomposed into rectangles, so counts are rectangles.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"dummyfill/internal/gdsii"
	"dummyfill/internal/geom"
	"dummyfill/internal/layio"
)

// row accumulates one (layer, kind) group of the -layers breakdown.
type row struct {
	layer int
	kind  string
	count int
	area  int64
	bbox  geom.Rect
}

func main() {
	layers := flag.Bool("layers", false, "print per-layer breakdown")
	flag.Parse()
	if flag.NArg() != 1 {
		fatal(fmt.Errorf("usage: gdscat [-layers] <file.gds>"))
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	sr := gdsii.NewShapeReader(f, layio.DefaultLimits())
	groups := map[row]*row{} // keyed on {layer, kind}
	n := 0
	for {
		s, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(err)
		}
		n++
		key := row{layer: s.Layer, kind: "wire"}
		if s.Datatype == layio.DatatypeFill {
			key.kind = "fill"
		}
		r := groups[key]
		if r == nil {
			r = &key
			groups[key] = r
		}
		r.count++
		r.area += s.Rect.Area()
		r.bbox = r.bbox.Union(s.Rect)
	}
	fmt.Printf("library %q: %d shapes\n", sr.Header().Name, n)
	if !*layers {
		return
	}
	rows := make([]*row, 0, len(groups))
	for _, r := range groups {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].layer != rows[b].layer {
			return rows[a].layer < rows[b].layer
		}
		return rows[a].kind < rows[b].kind
	})
	for _, r := range rows {
		fmt.Printf("  layer %d %s: %d shapes, area %d, bbox %v\n", r.layer, r.kind, r.count, r.area, r.bbox)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gdscat:", err)
	os.Exit(1)
}
