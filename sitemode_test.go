package dummyfill_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	dummyfill "dummyfill"
)

// goldenSite pins the SHA-256 of site-mode (filler-cell placement)
// output on the "row" design at pad 1: the full GDSII deck from the
// synthetic layout, and the DEF deck streamed from the DEF-ingested
// round trip below. Site mode inherits the engine's byte-identical
// determinism contract, so every worker count, with and without the fill
// cache, must hit the same hash; drift is a regression unless re-recorded
// deliberately.
const (
	goldenSiteGDS = "49dba3b4aac593d022e6bde6a5e25b7777e46cea3db0c037146a43f9f4a8ce16"
	goldenSiteDEF = "733d71066bff51fc93a8ecc6ce7ac997a324c9434bffb0eea0edac3c4db94ae9"
)

func siteOptions(workers int, cache *dummyfill.FillCache) dummyfill.Options {
	opts := dummyfill.DefaultOptions()
	opts.Mode = dummyfill.ModeSite
	opts.SitePad = 1
	opts.Workers = workers
	opts.Cache = cache
	return opts
}

// siteRun is one site-mode golden run: a worker count, uncached or
// through one shared fill cache (the first cached run populates it, the
// rest replay).
type siteRun struct {
	workers int
	cached  bool
}

var siteRuns = []siteRun{
	{1, false}, {2, false}, {4, false}, {8, false}, {runtime.NumCPU(), false},
	{1, true}, {4, true}, {runtime.NumCPU(), true},
}

// TestGoldenSiteGDSHashes is the site-mode analogue of the rect-mode
// golden hash tests: the full-flow GDSII output on the row design must
// match the pinned hash for every worker count, with and without the
// fill cache, and the solution must be clean under both the geometric
// DRC and the site-placement DRC (lattice alignment, master widths,
// padding).
func TestGoldenSiteGDSHashes(t *testing.T) {
	cache, err := dummyfill.OpenFillCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range siteRuns {
		lay, _, err := dummyfill.GenerateBenchmark("row")
		if err != nil {
			t.Fatal(err)
		}
		var c *dummyfill.FillCache
		if run.cached {
			c = cache
		}
		res, err := dummyfill.Insert(lay, siteOptions(run.workers, c))
		if err != nil {
			t.Fatalf("%+v: %v", run, err)
		}
		var buf bytes.Buffer
		if err := dummyfill.WriteGDS(&buf, lay, &res.Solution); err != nil {
			t.Fatal(err)
		}
		if got := sha(buf.Bytes()); got != goldenSiteGDS {
			t.Errorf("%+v: GDS hash %s, want %s", run, got, goldenSiteGDS)
		}
		if vs := dummyfill.CheckDRC(lay, &res.Solution); len(vs) != 0 {
			t.Errorf("%+v: %d DRC violations (first: %v)", run, len(vs), vs[0])
		}
		if vs := dummyfill.CheckSiteDRC(lay, &res.Solution, nil, 1); len(vs) != 0 {
			t.Errorf("%+v: %d site DRC violations (first: %v)", run, len(vs), vs[0])
		}
	}
}

// TestSiteDEFRoundTripGolden drives the full DEF interchange loop:
// synthesize the row design, emit its wire deck as DEF, ingest it back
// through the sniffing reader (the derived lattice and synthesized
// rules, not the synthetic originals, drive the fill run), site-fill it,
// and stream the filled deck back out as DEF. The output must be
// byte-identical across worker counts and cache states and match the
// pinned hash, and
// re-ingesting the filled deck must recover every wire and fill.
func TestSiteDEFRoundTripGolden(t *testing.T) {
	lay, _, err := dummyfill.GenerateBenchmark("row")
	if err != nil {
		t.Fatal(err)
	}
	var deck bytes.Buffer
	if err := dummyfill.WriteDEFLayout(&deck, lay, nil); err != nil {
		t.Fatal(err)
	}
	lay2, err := dummyfill.ReadLayout(bytes.NewReader(deck.Bytes()), dummyfill.IngestOptions{Window: lay.Window})
	if err != nil {
		t.Fatal(err)
	}
	if lay2.Sites == nil {
		t.Fatal("DEF ingest lost the site lattice")
	}
	if *lay2.Sites != *lay.Sites {
		t.Fatalf("ingested lattice %+v, want %+v", *lay2.Sites, *lay.Sites)
	}
	if got, want := len(lay2.Layers[0].Wires), len(lay.Layers[0].Wires); got != want {
		t.Fatalf("ingested %d wires, want %d", got, want)
	}

	cache, err := dummyfill.OpenFillCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range siteRuns {
		var c *dummyfill.FillCache
		if run.cached {
			c = cache
		}
		var out bytes.Buffer
		if _, err := dummyfill.InsertStreamTo(context.Background(), &out, lay2, siteOptions(run.workers, c), "def"); err != nil {
			t.Fatalf("%+v: %v", run, err)
		}
		if got := sha(out.Bytes()); got != goldenSiteDEF {
			t.Errorf("%+v: DEF hash %s, want %s", run, got, goldenSiteDEF)
		}
	}

	// Close the loop: the filled deck must re-read to wires + fills.
	res, err := dummyfill.Insert(lay2, siteOptions(0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solution.Fills) == 0 {
		t.Fatal("site mode placed no fills on the ingested layout")
	}
	var filled bytes.Buffer
	if err := dummyfill.WriteDEFLayout(&filled, lay2, &res.Solution); err != nil {
		t.Fatal(err)
	}
	lay3, err := dummyfill.ReadLayout(bytes.NewReader(filled.Bytes()),
		dummyfill.IngestOptions{Window: lay.Window, KeepFills: true})
	if err != nil {
		t.Fatal(err)
	}
	want := len(lay2.Layers[0].Wires) + len(res.Solution.Fills)
	if got := len(lay3.Layers[0].Wires); got != want {
		t.Fatalf("filled deck re-read %d shapes, want %d wires + %d fills = %d",
			got, len(lay2.Layers[0].Wires), len(res.Solution.Fills), want)
	}
}
