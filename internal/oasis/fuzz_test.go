package oasis

import (
	"bytes"
	"errors"
	"testing"

	"dummyfill/internal/layio"
)

// FuzzRead exercises the OASIS ShapeReader with arbitrary byte streams;
// any input must produce a clean error or a drained shape stream, never a
// panic.
// Run with `go test -fuzz FuzzRead ./internal/oasis` for deep exploration;
// plain `go test` replays the seed corpus.
func FuzzRead(f *testing.F) {
	var valid bytes.Buffer
	if err := writeSample(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte(Magic))                          // magic only, truncated body
	f.Add([]byte(Magic + "\x00\x00\x00\x00"))     // padding then EOF
	f.Add([]byte(Magic + "\xff\xff\xff\xff\xff")) // huge varint record type
	f.Add(valid.Bytes()[:len(Magic)+3])
	// Shape bomb: a run of minimal square rectangles (info byte with only
	// S|X|Y set reuses all modal state), exercising the MaxShapes cap.
	bomb := []byte(Magic)
	bomb = append(bomb, bytes.Repeat([]byte{recRectangle, 0x98, 0x00, 0x00}, 512)...)
	f.Add(bomb)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Default and tight limits must both end in a clean error
		// (wrapping layio.ErrLimit when it is the limit that trips) or a drained
		// stream, never a panic.
		_, _, _ = drain(bytes.NewReader(data), layio.DefaultLimits())
		if _, _, err := drain(bytes.NewReader(data), layio.Limits{MaxRecords: 16, MaxShapes: 2}); err != nil {
			_ = errors.Is(err, layio.ErrLimit)
		}
		// Errors are sticky: a failed Next keeps failing.
		sr := NewShapeReader(bytes.NewReader(data), layio.Limits{MaxRecords: 4096, MaxShapes: 256})
		for {
			if _, err := sr.Next(); err != nil {
				if _, err2 := sr.Next(); err2 != err {
					t.Fatalf("non-sticky ShapeReader error: %v then %v", err, err2)
				}
				break
			}
		}
	})
}

func TestShapeReaderMaxShapes(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSample(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes() // five rectangles

	if _, _, err := drain(bytes.NewReader(valid), layio.Limits{MaxShapes: 5}); err != nil {
		t.Fatalf("limit equal to shape count must pass: %v", err)
	}
	_, _, err := drain(bytes.NewReader(valid), layio.Limits{MaxShapes: 4})
	if !errors.Is(err, layio.ErrLimit) {
		t.Fatalf("MaxShapes=4 on 5-shape stream: got %v, want layio.ErrLimit", err)
	}
}

func TestShapeReaderMaxRecords(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSample(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	_, _, err := drain(bytes.NewReader(valid), layio.Limits{MaxRecords: 2})
	if !errors.Is(err, layio.ErrLimit) {
		t.Fatalf("tiny MaxRecords: got %v, want layio.ErrLimit", err)
	}
	if _, _, err := drain(bytes.NewReader(valid), layio.Limits{MaxRecords: 1 << 20}); err != nil {
		t.Fatalf("generous MaxRecords must pass: %v", err)
	}
}

func TestShapeReaderZeroIsUnlimited(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSample(&buf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := drain(bytes.NewReader(buf.Bytes()), layio.Limits{}); err != nil {
		t.Fatalf("layio.Limits{} must be unlimited: %v", err)
	}
}
