package layout

import (
	"errors"
	"strings"
	"testing"

	"dummyfill/internal/geom"
	"dummyfill/internal/grid"
)

func testRules() Rules {
	return Rules{MinWidth: 2, MinSpace: 2, MinArea: 4, MaxFillDim: 50}
}

func smallLayout() *Layout {
	return &Layout{
		Name:   "t",
		Die:    geom.R(0, 0, 100, 100),
		Window: 50,
		Rules:  testRules(),
		Layers: []*Layer{
			{
				Wires:       []geom.Rect{geom.R(0, 0, 40, 10)},
				FillRegions: []geom.Rect{geom.R(0, 20, 100, 100)},
			},
			{
				Wires:       []geom.Rect{geom.R(60, 60, 100, 100)},
				FillRegions: []geom.Rect{geom.R(0, 0, 50, 50)},
			},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := smallLayout().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadShapes(t *testing.T) {
	l := smallLayout()
	l.Layers[0].Wires = append(l.Layers[0].Wires, geom.R(90, 90, 120, 120))
	if err := l.Validate(); err == nil {
		t.Fatal("wire escaping die must fail")
	}

	l = smallLayout()
	l.Layers[0].FillRegions = []geom.Rect{geom.R(0, 0, 50, 50)} // overlaps wire
	if err := l.Validate(); err == nil {
		t.Fatal("fill region overlapping wire must fail")
	}

	l = smallLayout()
	l.Layers[0].FillRegions = append(l.Layers[0].FillRegions, geom.R(80, 80, 100, 100))
	if err := l.Validate(); err == nil {
		t.Fatal("overlapping fill regions must fail")
	}

	l = smallLayout()
	l.Layers[0].FillRegions = []geom.Rect{geom.R(41, 0, 100, 100)} // 1 from the wire, MinSpace 2
	if err := l.Validate(); err == nil {
		t.Fatal("fill region within MinSpace of a wire must fail")
	}

	l = smallLayout()
	l.Window = 0
	if err := l.Validate(); err == nil {
		t.Fatal("zero window must fail")
	}

	l = smallLayout()
	l.Layers = nil
	if err := l.Validate(); err == nil {
		t.Fatal("no layers must fail")
	}
}

// TestValidateWindowCap checks that a window dissecting the die into
// more than grid.MaxWindows windows fails validation with the grid's
// typed error, before any shape is looked at.
func TestValidateWindowCap(t *testing.T) {
	l := smallLayout()
	l.Die, l.Window = geom.R(0, 0, 2049, 2048), 1
	if err := l.Validate(); !errors.Is(err, grid.ErrLimit) || !strings.Contains(err.Error(), "too many windows") {
		t.Fatalf("err = %v, want grid.ErrLimit naming too many windows", err)
	}
}

// TestValidateIncidenceCap checks that a layer whose wires touch more
// than grid.MaxIncidences windows in total fails validation with the
// grid's typed error: 65 die-spanning wires over 2^20 windows.
func TestValidateIncidenceCap(t *testing.T) {
	l := smallLayout()
	l.Die, l.Window = geom.R(0, 0, 1<<20, 1<<20), 1024
	wires := make([]geom.Rect, grid.MaxIncidences>>20+1)
	for i := range wires {
		wires[i] = l.Die
	}
	l.Layers[0] = &Layer{Wires: wires}
	if err := l.Validate(); !errors.Is(err, grid.ErrLimit) || !strings.Contains(err.Error(), "too many shape-window incidences") {
		t.Fatalf("err = %v, want grid.ErrLimit naming too many shape-window incidences", err)
	}
}

func TestRulesValidate(t *testing.T) {
	cases := []struct {
		r  Rules
		ok bool
	}{
		{Rules{MinWidth: 2, MinSpace: 2, MinArea: 4, MaxFillDim: 50}, true},
		{Rules{MinWidth: 0, MinSpace: 2, MinArea: 4}, false},
		{Rules{MinWidth: 2, MinSpace: -1, MinArea: 4}, false},
		{Rules{MinWidth: 2, MinSpace: 2, MinArea: 1}, false},                 // below wm²
		{Rules{MinWidth: 5, MinSpace: 2, MinArea: 25, MaxFillDim: 3}, false}, // max < min
		{Rules{MinWidth: 2, MinSpace: 0, MinArea: 4, MaxFillDim: 0}, true},   // unlimited max
	}
	for i, c := range cases {
		err := c.r.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestStatistics(t *testing.T) {
	l := smallLayout()
	st := l.Statistics()
	if st.NumLayers != 2 || st.NumShapes != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.WireArea[0] != 400 {
		t.Fatalf("layer 0 wire area = %d, want 400", st.WireArea[0])
	}
	if st.WireDens[0] != 0.04 {
		t.Fatalf("layer 0 wire density = %v, want 0.04", st.WireDens[0])
	}
	if st.NumWindows != 4 {
		t.Fatalf("windows = %d, want 4", st.NumWindows)
	}
}

func TestWireDensityMapOverlapHandling(t *testing.T) {
	l := smallLayout()
	// Duplicate a wire exactly: union density must not double count.
	l.Layers[0].Wires = append(l.Layers[0].Wires, l.Layers[0].Wires[0])
	g, err := l.Grid()
	if err != nil {
		t.Fatal(err)
	}
	m := l.WireDensityMap(g, 0)
	// Window (0,0) is 50x50 = 2500; wire covers 40x10 = 400.
	if got := m.At(0, 0); got != 400.0/2500 {
		t.Fatalf("density = %v, want %v", got, 400.0/2500)
	}
}

func TestFillRegionAreaMap(t *testing.T) {
	l := smallLayout()
	g, _ := l.Grid()
	m := l.FillRegionAreaMap(g, 1)
	if m.At(0, 0) != 2500 {
		t.Fatalf("fill region area (0,0) = %v, want 2500", m.At(0, 0))
	}
	if m.At(1, 1) != 0 {
		t.Fatalf("fill region area (1,1) = %v, want 0", m.At(1, 1))
	}
}

func TestSolutionPerLayer(t *testing.T) {
	s := &Solution{Fills: []Fill{
		{0, geom.R(0, 0, 5, 5)},
		{1, geom.R(10, 10, 15, 15)},
		{0, geom.R(20, 20, 25, 25)},
		{7, geom.R(0, 0, 1, 1)}, // out of range: dropped
	}}
	per := s.PerLayer(2)
	if len(per[0]) != 2 || len(per[1]) != 1 {
		t.Fatalf("per-layer split wrong: %v", per)
	}
}

func TestGridAccessor(t *testing.T) {
	l := smallLayout()
	g, err := l.Grid()
	if err != nil {
		t.Fatal(err)
	}
	var _ *grid.Grid = g
	if g.NX != 2 || g.NY != 2 {
		t.Fatalf("grid %dx%d, want 2x2", g.NX, g.NY)
	}
}
