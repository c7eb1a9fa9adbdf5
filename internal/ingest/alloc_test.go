package ingest_test

import (
	"bytes"
	"runtime"
	"testing"

	dummyfill "dummyfill"
	"dummyfill/internal/gdsii"
	"dummyfill/internal/ingest"
	"dummyfill/internal/layio"
)

// maxAllocPerDeckByte caps streaming GDSII ingest on design "m": the
// cumulative allocation of NewShapeReader + FromShapes divided by the
// deck's size. Streaming ingest allocates about 12 B per deck byte; it
// allocated about 25 while it also validated the extracted layout, and a
// parser that materialized the whole library first allocated about 38.
const maxAllocPerDeckByte = 36

// allocTotal runs f and returns its cumulative allocation in bytes
// (TotalAlloc delta — deterministic, unlike sampled live heap).
func allocTotal(t *testing.T, f func()) uint64 {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStreamingIngestAllocPerDeckByte guards the point of the streaming
// reader path: ingesting a real deck (design "m") through FromShapes
// must stay under maxAllocPerDeckByte, so reintroducing materialization
// on the ingest path fails here.
func TestStreamingIngestAllocPerDeckByte(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc bound on design m skipped under -short")
	}
	lay, _, err := dummyfill.GenerateBenchmark("m")
	if err != nil {
		t.Fatal(err)
	}
	var deck bytes.Buffer
	if err := dummyfill.WriteGDS(&deck, lay, nil); err != nil {
		t.Fatal(err)
	}
	data := deck.Bytes()
	opts := ingest.Options{Die: lay.Die, Window: lay.Window, Rules: lay.Rules}

	var got *dummyfill.Layout
	alloc := allocTotal(t, func() {
		var err error
		got, err = ingest.FromShapes(gdsii.NewShapeReader(bytes.NewReader(data), layio.DefaultLimits()), opts)
		if err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	if got.NumShapes() != lay.NumShapes() {
		t.Fatalf("ingest lost shapes: %d of %d", got.NumShapes(), lay.NumShapes())
	}
	perByte := float64(alloc) / float64(len(data))
	t.Logf("deck %d bytes, %d shapes: streaming ingest allocated %d B (%.1f B per deck byte)",
		len(data), got.NumShapes(), alloc, perByte)
	if perByte > maxAllocPerDeckByte {
		t.Fatalf("streaming ingest allocated %.1f B per deck byte, want ≤ %d", perByte, maxAllocPerDeckByte)
	}
}
