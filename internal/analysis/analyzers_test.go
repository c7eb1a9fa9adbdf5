package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// Each analyzer is exercised against a seeded true-positive fixture and a
// clean fixture, type-checked under a package path the analyzer scopes
// on. The // want comments in the fixtures are the expectations.

func TestNoDetermFixtures(t *testing.T) {
	runFixture(t, NoDeterm, fixturePath("nodeterm", "bad.go"), "dummyfill/internal/fill")
	runFixture(t, NoDeterm, fixturePath("nodeterm", "clean.go"), "dummyfill/internal/fill")
	// Shard-scheduler hazards: map-range over shard state, clock-driven
	// shard decisions.
	runFixture(t, NoDeterm, fixturePath("nodeterm", "shard.go"), "dummyfill/internal/fill")
	// Cache-key hazards: timestamped keys never hit, map-order hashing
	// makes identical content key differently across runs.
	runFixture(t, NoDeterm, fixturePath("nodeterm", "fillcache.go"), "dummyfill/internal/fillcache")
	// DEF-writer hazards: timestamped headers and map-order component
	// emission break the round-trip golden.
	runFixture(t, NoDeterm, fixturePath("nodeterm", "deffmt.go"), "dummyfill/internal/deffmt")
	// Site-mode hazards: map-order gap collection and random width
	// tie-breaks break the site golden matrix.
	runFixture(t, NoDeterm, fixturePath("nodeterm", "site.go"), "dummyfill/internal/fill")
}

// TestNoDetermScope checks that the same hazards outside the
// deterministic package set are not findings: the synthetic-design
// generator legitimately uses seeded randomness.
func TestNoDetermScope(t *testing.T) {
	diags := fixtureDiags(t, NoDeterm, fixturePath("nodeterm", "bad.go"), "dummyfill/internal/synth")
	if len(diags) != 0 {
		t.Fatalf("nodeterm fired outside its package scope: %v", diags)
	}
}

func TestCtxFlowFixtures(t *testing.T) {
	runFixture(t, CtxFlow, fixturePath("ctxflow", "bad.go"), "dummyfill/internal/fill")
	runFixture(t, CtxFlow, fixturePath("ctxflow", "clean.go"), "dummyfill/internal/fill")
	// Shard-scheduler hazards: per-shard planning detached from the run
	// context.
	runFixture(t, CtxFlow, fixturePath("ctxflow", "shard.go"), "dummyfill/internal/fill")
	// Serving-layer hazards: jobs detached from the request/drain
	// contexts. internal/serve is in the analyzer's scope so its job
	// paths keep the hard-abort contract.
	runFixture(t, CtxFlow, fixturePath("ctxflow", "serve.go"), "dummyfill/internal/serve")
	// Cache-tier hazards: lookups detached from the engine's run context.
	runFixture(t, CtxFlow, fixturePath("ctxflow", "fillcache.go"), "dummyfill/internal/fillcache")
	// DEF-ingest hazards: decode helpers detached from the pipeline's
	// cancellable context.
	runFixture(t, CtxFlow, fixturePath("ctxflow", "deffmt.go"), "dummyfill/internal/deffmt")
}

// TestCtxFlowServeScope pins internal/serve inside the ctxflow scope: a
// regression that drops it from the package set silences the serving
// fixtures without failing them.
func TestCtxFlowServeScope(t *testing.T) {
	if !CtxFlow.Packages("dummyfill/internal/serve") {
		t.Fatal("ctxflow does not scope over dummyfill/internal/serve")
	}
}

// TestFillcacheScope pins internal/fillcache inside both the nodeterm
// and ctxflow scopes: cache keys feed the golden-hash determinism
// contract, and cache loads run under the engine's cancellable pipeline.
func TestFillcacheScope(t *testing.T) {
	if !NoDeterm.Packages("dummyfill/internal/fillcache") {
		t.Fatal("nodeterm does not scope over dummyfill/internal/fillcache")
	}
	if !CtxFlow.Packages("dummyfill/internal/fillcache") {
		t.Fatal("ctxflow does not scope over dummyfill/internal/fillcache")
	}
}

// TestDeffmtScope pins internal/deffmt inside both the nodeterm and
// ctxflow scopes: emitted DEF decks are golden-hashed like every other
// wire format, and ingest runs under the cancellable pipeline.
func TestDeffmtScope(t *testing.T) {
	if !NoDeterm.Packages("dummyfill/internal/deffmt") {
		t.Fatal("nodeterm does not scope over dummyfill/internal/deffmt")
	}
	if !CtxFlow.Packages("dummyfill/internal/deffmt") {
		t.Fatal("ctxflow does not scope over dummyfill/internal/deffmt")
	}
}

func TestPoolPairFixtures(t *testing.T) {
	// poolpair is unscoped: pool discipline holds module-wide.
	runFixture(t, PoolPair, fixturePath("poolpair", "bad.go"), "dummyfill/internal/geom")
	runFixture(t, PoolPair, fixturePath("poolpair", "clean.go"), "dummyfill/internal/geom")
	// Serving-layer pooled response buffers: leaked on reject paths,
	// reused without Reset.
	runFixture(t, PoolPair, fixturePath("poolpair", "serve.go"), "dummyfill/internal/serve")
	// Cache hasher-scratch pools: leaked Gets and early-return leaks.
	runFixture(t, PoolPair, fixturePath("poolpair", "fillcache.go"), "dummyfill/internal/fillcache")
	// Site-mode candidate-batch scratch: leaked on empty-lattice bails.
	runFixture(t, PoolPair, fixturePath("poolpair", "site.go"), "dummyfill/internal/fill")
}

func TestGeomCastFixtures(t *testing.T) {
	runFixture(t, GeomCast, fixturePath("geomcast", "bad.go"), "dummyfill/internal/gdsii")
	runFixture(t, GeomCast, fixturePath("geomcast", "clean.go"), "dummyfill/internal/gdsii")
}

func TestNoPanicFixtures(t *testing.T) {
	runFixture(t, NoPanic, fixturePath("nopanic", "bad.go"), "dummyfill/internal/mcf")
	runFixture(t, NoPanic, fixturePath("nopanic", "clean.go"), "dummyfill/internal/mcf")
}

func TestMalformedPragmasAreFindings(t *testing.T) {
	runFixture(t, NoPanic, fixturePath("pragma", "bad.go"), "dummyfill/internal/mcf")
}

func TestUnusedPragmasAreFindings(t *testing.T) {
	runFixture(t, NoPanic, fixturePath("pragma", "unused.go"), "dummyfill/internal/mcf")
}

// TestUnusedPragmaNeedsEnabledAnalyzer pins the staleness rule: a pragma
// is only judged unused when its analyzer actually ran, so running a
// subset never flags waivers belonging to the analyzers left out.
func TestUnusedPragmaNeedsEnabledAnalyzer(t *testing.T) {
	diags := fixtureDiags(t, CtxFlow, fixturePath("pragma", "unused.go"), "dummyfill/internal/fill")
	for _, d := range diags {
		if strings.Contains(d.Message, "unused allow pragma") {
			t.Fatalf("nopanic pragma judged stale by a run without nopanic: %v", d)
		}
	}
}

func TestLockGuardFixtures(t *testing.T) {
	// lockguard is unscoped: guard annotations are opt-in per field, so
	// it costs nothing where nothing is annotated.
	runFixture(t, LockGuard, fixturePath("lockguard", "bad.go"), "dummyfill/internal/serve")
	runFixture(t, LockGuard, fixturePath("lockguard", "clean.go"), "dummyfill/internal/serve")
	// The serving drain-gate shape: WaitGroup accounting ordered against
	// the draining flip through drainMu, as in internal/serve.
	runFixture(t, LockGuard, fixturePath("lockguard", "serve.go"), "dummyfill/internal/serve")
}

func TestGoLeakFixtures(t *testing.T) {
	runFixture(t, GoLeak, fixturePath("goleak", "bad.go"), "dummyfill/internal/fill")
	runFixture(t, GoLeak, fixturePath("goleak", "clean.go"), "dummyfill/internal/fill")
}

func TestErrSinkFixtures(t *testing.T) {
	runFixture(t, ErrSink, fixturePath("errsink", "bad.go"), "dummyfill/internal/fill")
	runFixture(t, ErrSink, fixturePath("errsink", "clean.go"), "dummyfill/internal/fill")
}

func TestChanBoundFixtures(t *testing.T) {
	runFixture(t, ChanBound, fixturePath("chanbound", "bad.go"), "dummyfill/internal/serve")
	runFixture(t, ChanBound, fixturePath("chanbound", "clean.go"), "dummyfill/internal/serve")
}

// TestChanBoundScope: unbuffered data channels outside the pipeline and
// serving packages are not chanbound's business.
func TestChanBoundScope(t *testing.T) {
	diags := fixtureDiags(t, ChanBound, fixturePath("chanbound", "bad.go"), "dummyfill/internal/synth")
	if len(diags) != 0 {
		t.Fatalf("chanbound fired outside its package scope: %v", diags)
	}
}

// TestCrossPackageErrSinkFacts drives the two-package fixture module
// through the real driver: package b drops two errors from package a,
// and only the unannotated one is a finding — which requires a's
// ErrSinkFact to reach b.
func TestCrossPackageErrSinkFacts(t *testing.T) {
	diags, _, err := RunModule(filepath.Join("testdata", "factsmod"), []*Analyzer{ErrSink})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 finding (Fragile discarded), got %v", diags)
	}
	d := diags[0]
	if !strings.Contains(d.Message, "Fragile") || !strings.HasSuffix(d.Pos.Filename, "b.go") {
		t.Fatalf("finding should be the Fragile discard in b.go: %v", d)
	}
}

// TestAllUniqueNames guards the registry against duplicate or empty
// analyzer names (the driver's -analyzers flag keys on them).
func TestAllUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %+v incompletely registered", a)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
