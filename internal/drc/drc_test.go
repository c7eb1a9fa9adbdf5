package drc

import (
	"testing"

	"dummyfill/internal/geom"
	"dummyfill/internal/layout"
)

func drcLayout() *layout.Layout {
	return &layout.Layout{
		Name:   "drc",
		Die:    geom.R(0, 0, 200, 200),
		Window: 100,
		Rules:  layout.Rules{MinWidth: 4, MinSpace: 4, MinArea: 16, MaxFillDim: 50},
		Layers: []*layout.Layer{{
			Wires:       []geom.Rect{geom.R(0, 0, 40, 10)},
			FillRegions: []geom.Rect{geom.R(0, 20, 200, 200)},
		}},
	}
}

func fills(rs ...geom.Rect) *layout.Solution {
	s := &layout.Solution{}
	for _, r := range rs {
		s.Fills = append(s.Fills, layout.Fill{Layer: 0, Rect: r})
	}
	return s
}

func kinds(vs []Violation) map[Kind]int { return CountByKind(vs) }

func TestCleanSolution(t *testing.T) {
	lay := drcLayout()
	sol := fills(geom.R(10, 30, 30, 50), geom.R(40, 30, 60, 50))
	if vs := Check(lay, sol, true); len(vs) != 0 {
		t.Fatalf("clean solution flagged: %v", vs)
	}
}

func TestWidthViolation(t *testing.T) {
	lay := drcLayout()
	sol := fills(geom.R(10, 30, 13, 60)) // width 3 < 4
	vs := Check(lay, sol, true)
	if kinds(vs)[KindWidth] != 1 {
		t.Fatalf("want 1 width violation, got %v", vs)
	}
}

func TestAreaViolation(t *testing.T) {
	lay := drcLayout()
	lay.Rules.MinArea = 100
	sol := fills(geom.R(10, 30, 16, 40)) // 60 < 100, but width/height ok
	vs := Check(lay, sol, true)
	if kinds(vs)[KindArea] != 1 {
		t.Fatalf("want 1 area violation, got %v", vs)
	}
}

func TestMaxDimViolation(t *testing.T) {
	lay := drcLayout()
	sol := fills(geom.R(10, 30, 80, 40)) // width 70 > 50
	vs := Check(lay, sol, true)
	if kinds(vs)[KindMaxDim] != 1 {
		t.Fatalf("want 1 max-dim violation, got %v", vs)
	}
	lay.Rules.MaxFillDim = 0 // unlimited
	if vs := Check(lay, sol, true); kinds(vs)[KindMaxDim] != 0 {
		t.Fatalf("unlimited max dim still flagged: %v", vs)
	}
}

func TestSpacingViolationReportedOnce(t *testing.T) {
	lay := drcLayout()
	sol := fills(geom.R(10, 30, 30, 50), geom.R(32, 30, 52, 50)) // gap 2 < 4
	vs := Check(lay, sol, true)
	if kinds(vs)[KindSpacing] != 1 {
		t.Fatalf("want exactly 1 spacing violation, got %v", vs)
	}
	// Diagonal spacing: gaps (3,3) violate.
	sol = fills(geom.R(10, 30, 30, 50), geom.R(33, 53, 53, 73))
	vs = Check(lay, sol, true)
	if kinds(vs)[KindSpacing] != 1 {
		t.Fatalf("diagonal spacing not caught: %v", vs)
	}
	// Exactly at spacing: legal.
	sol = fills(geom.R(10, 30, 30, 50), geom.R(34, 30, 54, 50))
	if vs := Check(lay, sol, true); len(vs) != 0 {
		t.Fatalf("exact spacing flagged: %v", vs)
	}
}

func TestWireSpacingViolation(t *testing.T) {
	lay := drcLayout()
	sol := fills(geom.R(10, 12, 30, 32)) // 2 above the wire (ends y=10)
	vs := Check(lay, sol, false)
	if kinds(vs)[KindWireSpacing] != 1 {
		t.Fatalf("want 1 wire-spacing violation, got %v", vs)
	}
}

func TestOutsideRegionViolation(t *testing.T) {
	lay := drcLayout()
	sol := fills(geom.R(50, 5, 70, 18)) // partially below y=20 region start
	vs := Check(lay, sol, true)
	if kinds(vs)[KindOutsideRegion] != 1 {
		t.Fatalf("want 1 outside-region violation, got %v", vs)
	}
	// With region checking off it is not reported.
	vs = Check(lay, sol, false)
	if kinds(vs)[KindOutsideRegion] != 0 {
		t.Fatalf("region check not disabled: %v", vs)
	}
}

func TestKindString(t *testing.T) {
	for k := KindWidth; k <= KindWireSpacing; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("unknown kind must stringify to unknown")
	}
	v := Violation{Kind: KindWidth, Layer: 2, A: geom.R(0, 0, 1, 1)}
	if v.String() == "" {
		t.Fatal("violation must stringify")
	}
}

func TestMultiLayerIndependence(t *testing.T) {
	lay := drcLayout()
	lay.Layers = append(lay.Layers, &layout.Layer{
		FillRegions: []geom.Rect{geom.R(0, 0, 200, 200)},
	})
	// Two fills stacked on different layers: no same-layer spacing issue.
	sol := &layout.Solution{Fills: []layout.Fill{
		{Layer: 0, Rect: geom.R(10, 30, 30, 50)},
		{Layer: 1, Rect: geom.R(10, 30, 30, 50)},
	}}
	if vs := Check(lay, sol, true); len(vs) != 0 {
		t.Fatalf("cross-layer stacking flagged: %v", vs)
	}
}

// CountByKind tallies violations per kind.
func CountByKind(vs []Violation) map[Kind]int {
	out := map[Kind]int{}
	for _, v := range vs {
		out[v.Kind]++
	}
	return out
}
