package dummyfill_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	dummyfill "dummyfill"
)

// tinyBench generates the small synthetic design once per test binary.
func tinyBench(t testing.TB) (*dummyfill.Layout, dummyfill.Coefficients) {
	t.Helper()
	lay, coeffs, err := dummyfill.GenerateBenchmark("tiny")
	if err != nil {
		t.Fatal(err)
	}
	return lay, coeffs
}

func TestGenerateBenchmarkNames(t *testing.T) {
	for _, name := range []string{"tiny", "s"} {
		lay, coeffs, err := dummyfill.GenerateBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		if lay.Name != name {
			t.Fatalf("layout name %q, want %q", lay.Name, name)
		}
		if coeffs.BetaVar <= 0 || coeffs.BetaOverlay <= 0 {
			t.Fatalf("uncalibrated coefficients: %+v", coeffs)
		}
	}
	if _, _, err := dummyfill.GenerateBenchmark("nope"); err == nil {
		t.Fatal("unknown design must error")
	}
}

func TestInsertEndToEnd(t *testing.T) {
	lay, coeffs := tinyBench(t)
	res, err := dummyfill.Insert(lay, dummyfill.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solution.Fills) == 0 {
		t.Fatal("no fills inserted")
	}
	if vs := dummyfill.CheckDRC(lay, &res.Solution); len(vs) != 0 {
		t.Fatalf("%d DRC violations, first: %v", len(vs), vs[0])
	}
	// Score with and without environment measurements.
	rep, err := dummyfill.Score(lay, &res.Solution, coeffs, dummyfill.Measured{
		FileSizeBytes: 100 << 10,
		Runtime:       500 * time.Millisecond,
		MemoryMiB:     64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quality <= 0 || rep.Total <= rep.Quality {
		t.Fatalf("suspicious scores: %+v", rep)
	}
	// Density metrics must improve over the unfilled layout.
	empty, err := dummyfill.Score(lay, &dummyfill.Solution{}, coeffs, dummyfill.Measured{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Raw.SumSigma >= empty.Raw.SumSigma {
		t.Fatalf("σ did not improve: %v -> %v", empty.Raw.SumSigma, rep.Raw.SumSigma)
	}
	if rep.Raw.SumLine >= empty.Raw.SumLine {
		t.Fatalf("line hotspots did not improve: %v -> %v", empty.Raw.SumLine, rep.Raw.SumLine)
	}
}

func TestGDSRoundTripViaPublicAPI(t *testing.T) {
	lay, _ := tinyBench(t)
	res, err := dummyfill.Insert(lay, dummyfill.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dummyfill.WriteGDS(&buf, lay, &res.Solution); err != nil {
		t.Fatal(err)
	}
	combined := int64(buf.Len())
	wires, fills, err := dummyfill.ReadGDSShapes(&buf)
	if err != nil {
		t.Fatal(err)
	}
	nw, nf := 0, 0
	for _, rs := range wires {
		nw += len(rs)
	}
	for _, rs := range fills {
		nf += len(rs)
	}
	if nw != lay.NumShapes() || nf != len(res.Solution.Fills) {
		t.Fatalf("round trip counts: wires %d/%d fills %d/%d", nw, lay.NumShapes(), nf, len(res.Solution.Fills))
	}
	sz, err := dummyfill.GDSSize(lay, &res.Solution)
	if err != nil {
		t.Fatal(err)
	}
	if sz <= 0 || sz >= combined {
		t.Fatalf("solution-only size %d vs combined %d", sz, combined)
	}
}

func TestAllMethodsProduceLegalSolutions(t *testing.T) {
	lay, coeffs := tinyBench(t)
	quality := map[string]float64{}
	for _, m := range dummyfill.AllMethods(dummyfill.DefaultOptions()) {
		rep, sol, err := dummyfill.RunMethod(m, lay, coeffs)
		if err != nil {
			t.Fatalf("method %s: %v", m.Name, err)
		}
		if len(sol.Fills) == 0 {
			t.Fatalf("method %s inserted nothing", m.Name)
		}
		if vs := dummyfill.CheckDRC(lay, sol); len(vs) != 0 {
			t.Fatalf("method %s: %d DRC violations, first %v", m.Name, len(vs), vs[0])
		}
		quality[m.Name] = rep.Quality
	}
	// The headline claim: ours beats every baseline on testcase quality.
	for name, q := range quality {
		if name != "ours" && q >= quality["ours"] {
			t.Fatalf("method %s quality %.3f >= ours %.3f", name, q, quality["ours"])
		}
	}
}

func TestOursUsesFewestFillsAmongUniformizers(t *testing.T) {
	// The file-size claim: our solution uses fewer shapes than the
	// baselines that achieve comparable uniformity (tile-lp, montecarlo).
	lay, _ := tinyBench(t)
	counts := map[string]int{}
	for _, m := range dummyfill.AllMethods(dummyfill.DefaultOptions()) {
		sol, _, err := m.Run(context.Background(), lay)
		if err != nil {
			t.Fatalf("method %s: %v", m.Name, err)
		}
		counts[m.Name] = len(sol.Fills)
	}
	if counts["ours"] >= counts["tile-lp"] {
		t.Fatalf("ours %d fills >= tile-lp %d", counts["ours"], counts["tile-lp"])
	}
	if counts["ours"] >= counts["montecarlo"] {
		t.Fatalf("ours %d fills >= montecarlo %d", counts["ours"], counts["montecarlo"])
	}
}

func TestInsertRespectsOptions(t *testing.T) {
	lay, _ := tinyBench(t)
	opts := dummyfill.DefaultOptions()
	opts.Workers = 1
	res1, err := dummyfill.Insert(lay, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	res8, err := dummyfill.Insert(lay, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Solution.Fills) != len(res8.Solution.Fills) {
		t.Fatalf("parallelism changed the result: %d vs %d fills",
			len(res1.Solution.Fills), len(res8.Solution.Fills))
	}
	bad := dummyfill.DefaultOptions()
	bad.Lambda = 0
	if _, err := dummyfill.Insert(lay, bad); err == nil {
		t.Fatal("invalid options must be rejected")
	}
}
