// Package textfmt implements a line-oriented text format for layouts and
// fill solutions — the human-authorable counterpart to the GDSII binary
// path, in the spirit of the plain-text benchmark descriptions DFM
// contests distribute alongside GDSII.
//
// Layout file grammar (one directive per line, '#' comments):
//
//	layout <name>
//	die <xl> <yl> <xh> <yh>
//	window <size>
//	rules <minwidth> <minspace> <minarea> <maxfilldim>
//	layer <index>
//	wire <xl> <yl> <xh> <yh>      # belongs to the last 'layer'
//	region <xl> <yl> <xh> <yh>    # feasible fill region
//
// Solution file grammar:
//
//	solution <name>
//	fill <layer> <xl> <yl> <xh> <yh>
package textfmt

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dummyfill/internal/geom"
	"dummyfill/internal/layout"
)

// WriteLayout emits lay in the text format.
func WriteLayout(w io.Writer, lay *layout.Layout) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "layout %s\n", sanitizeName(lay.Name))
	fmt.Fprintf(bw, "die %d %d %d %d\n", lay.Die.XL, lay.Die.YL, lay.Die.XH, lay.Die.YH)
	fmt.Fprintf(bw, "window %d\n", lay.Window)
	fmt.Fprintf(bw, "rules %d %d %d %d\n",
		lay.Rules.MinWidth, lay.Rules.MinSpace, lay.Rules.MinArea, lay.Rules.MaxFillDim)
	for li, layer := range lay.Layers {
		fmt.Fprintf(bw, "layer %d\n", li)
		for _, r := range layer.Wires {
			fmt.Fprintf(bw, "wire %d %d %d %d\n", r.XL, r.YL, r.XH, r.YH)
		}
		for _, r := range layer.FillRegions {
			fmt.Fprintf(bw, "region %d %d %d %d\n", r.XL, r.YL, r.XH, r.YH)
		}
	}
	return bw.Flush()
}

func parseRect(fields []string) (geom.Rect, error) {
	if len(fields) != 4 {
		return geom.Rect{}, fmt.Errorf("rect needs 4 coordinates")
	}
	vals, err := parseInts(fields)
	if err != nil {
		return geom.Rect{}, err
	}
	r := geom.Rect{XL: vals[0], YL: vals[1], XH: vals[2], YH: vals[3]}
	if r.Empty() {
		return geom.Rect{}, fmt.Errorf("degenerate rect %v", r)
	}
	return r, nil
}

func parseInts(fields []string) ([]int64, error) {
	out := make([]int64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out[i] = v
	}
	return out, nil
}

func sanitizeName(s string) string {
	if s == "" {
		return "unnamed"
	}
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' || r == '\n' {
			return '_'
		}
		return r
	}, s)
}
