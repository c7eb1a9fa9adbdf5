package gdsii

import (
	"bytes"
	"math/rand"
	"testing"

	"dummyfill/internal/geom"
	"dummyfill/internal/layio"
)

// TestReadNeverPanicsOnMutatedStreams feeds randomly corrupted versions of
// a valid stream to the reader: every outcome must be a clean error or a
// drained shape stream, never a panic or hang.
func TestReadNeverPanicsOnMutatedStreams(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLibrary().Write(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	rng := rand.New(rand.NewSource(77))
	for it := 0; it < 500; it++ {
		mut := append([]byte(nil), valid...)
		// 1-4 random byte mutations.
		for k := 0; k < 1+rng.Intn(4); k++ {
			mut[rng.Intn(len(mut))] = byte(rng.Intn(256))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("it %d: reader panicked: %v", it, r)
				}
			}()
			_, _, _ = drain(bytes.NewReader(mut), layio.DefaultLimits())
		}()
	}
}

func TestReadTruncatedStreams(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLibrary().Write(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	// Every strict prefix must fail cleanly (never panic, never succeed
	// except the full stream).
	for n := 0; n < len(valid); n++ {
		if _, _, err := drain(bytes.NewReader(valid[:n]), layio.DefaultLimits()); err == nil {
			t.Fatalf("prefix of %d/%d bytes parsed without error", n, len(valid))
		}
	}
	if _, _, err := drain(bytes.NewReader(valid), layio.DefaultLimits()); err != nil {
		t.Fatalf("full stream failed: %v", err)
	}
}

func TestHugeCoordinatesSurviveRoundTrip(t *testing.T) {
	// Near the int32 extremes of the XY record, kept within the library's
	// area budget (die extents must stay below ~2^31 DBU so rect areas and
	// their sums fit in int64).
	r := geom.R(-1000000000, -1000000000, 1000000000, 1000000000)
	lib := &Library{Name: "big", Structs: []Structure{{
		Name:       "S",
		Boundaries: []Boundary{rectBoundary(1, 0, r)},
	}}}
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		t.Fatal(err)
	}
	wires, _ := extract(t, buf.Bytes())
	if len(wires[0]) != 1 || wires[0][0] != r {
		t.Fatalf("extreme rect corrupted: %v", wires[0])
	}
}

func TestManyStructuresRoundTrip(t *testing.T) {
	lib := &Library{Name: "multi"}
	for i := 0; i < 20; i++ {
		st := Structure{Name: string(rune('A' + i))}
		for j := 0; j < 5; j++ {
			st.Boundaries = append(st.Boundaries,
				rectBoundary(i%4+1, j%2, geom.R(int64(j*10), int64(i*10), int64(j*10+5), int64(i*10+5))))
		}
		lib.Structs = append(lib.Structs, st)
	}
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		t.Fatal(err)
	}
	_, shapes, err := drain(&buf, layio.DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(shapes) != 20*5 {
		t.Fatalf("shapes lost: %d of %d", len(shapes), 20*5)
	}
	// Shapes stream out structure by structure, in file order.
	for k, s := range shapes {
		i, j := k/5, k%5
		want := geom.R(int64(j*10), int64(i*10), int64(j*10+5), int64(i*10+5))
		if s.Layer != i%4 || s.Datatype != j%2 || s.Rect != want {
			t.Fatalf("shape %d = %+v, want layer %d datatype %d rect %v", k, s, i%4, j%2, want)
		}
	}
}

func TestOddLengthStringPadding(t *testing.T) {
	lib := &Library{Name: "ODD"} // 3 chars -> padded to 4 on disk
	lib.Structs = []Structure{{Name: "X", Boundaries: []Boundary{
		rectBoundary(1, 0, geom.R(0, 0, 1, 1)),
	}}}
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len()%2 != 0 {
		t.Fatal("GDSII streams must be even-length")
	}
	if got := findRecord(t, buf.Bytes(), RecStrName).str(); got != "X" {
		t.Fatalf("padded structure name corrupted: %q", got)
	}
	hdr, shapes, err := drain(&buf, layio.DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Name != "ODD" || len(shapes) != 1 {
		t.Fatalf("padded library name corrupted: %q, %d shapes", hdr.Name, len(shapes))
	}
}
