package dummyfill_test

import (
	"bytes"
	"testing"

	dummyfill "dummyfill"
)

func TestSimulateCMPImprovement(t *testing.T) {
	lay, _ := tinyBench(t)
	params := dummyfill.DefaultCMPParams()
	before, err := dummyfill.SimulateCMP(lay, nil, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(lay.Layers) {
		t.Fatalf("planarity entries %d, layers %d", len(before), len(lay.Layers))
	}
	res, err := dummyfill.Insert(lay, dummyfill.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	after, err := dummyfill.SimulateCMP(lay, &res.Solution, params)
	if err != nil {
		t.Fatal(err)
	}
	for li := range before {
		if after[li].Range >= before[li].Range {
			t.Fatalf("layer %d post-CMP range did not improve: %.1f -> %.1f",
				li, before[li].Range, after[li].Range)
		}
	}
}

func TestSimulateCMPBadParams(t *testing.T) {
	lay, _ := tinyBench(t)
	bad := dummyfill.DefaultCMPParams()
	bad.BlanketRate = 0
	if _, err := dummyfill.SimulateCMP(lay, nil, bad); err == nil {
		t.Fatal("invalid CMP params must error")
	}
}

func TestReadGDSLayoutEndToEnd(t *testing.T) {
	lay, _ := tinyBench(t)
	var buf bytes.Buffer
	if err := dummyfill.WriteGDS(&buf, lay, nil); err != nil {
		t.Fatal(err)
	}
	got, err := dummyfill.ReadLayoutFormat(&buf, "gds", dummyfill.IngestOptions{
		Window: lay.Window,
		Rules:  lay.Rules,
		Die:    lay.Die,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumShapes() != lay.NumShapes() {
		t.Fatalf("shapes: %d vs %d", got.NumShapes(), lay.NumShapes())
	}
	// The reconstructed layout must be fillable and scoreable.
	coeffs, err := dummyfill.Calibrate(got, 10, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if coeffs.BetaVar <= 0 || coeffs.BetaOverlay <= 0 || coeffs.BetaSize <= 0 {
		t.Fatalf("calibration incomplete: %+v", coeffs)
	}
	res, err := dummyfill.Insert(got, dummyfill.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solution.Fills) == 0 {
		t.Fatal("re-ingested layout produced no fills")
	}
	if vs := dummyfill.CheckDRC(got, &res.Solution); len(vs) != 0 {
		t.Fatalf("DRC on ingested layout: %v", vs[0])
	}
}

func TestCalibrateRuntimeMemoryPassThrough(t *testing.T) {
	lay, _ := tinyBench(t)
	c, err := dummyfill.Calibrate(lay, 42, 777)
	if err != nil {
		t.Fatal(err)
	}
	if c.BetaRuntime != 42 || c.BetaMemory != 777 {
		t.Fatalf("runtime/memory βs not passed through: %+v", c)
	}
}
