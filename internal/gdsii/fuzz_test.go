package gdsii

import (
	"bytes"
	"errors"
	"testing"

	"dummyfill/internal/layio"
)

// FuzzRead exercises the GDSII ShapeReader with arbitrary byte streams;
// any input must produce a clean error or a drained shape stream, never a
// panic.
// Run with `go test -fuzz FuzzRead ./internal/gdsii` for deep exploration;
// plain `go test` replays the seed corpus.
func FuzzRead(f *testing.F) {
	var valid bytes.Buffer
	if err := sampleLibrary().Write(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x06, 0x00, 0x02, 0x02, 0x58}) // lone HEADER
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})             // absurd record length
	f.Add(valid.Bytes()[:10])
	// Record bomb: header followed by a long run of minimal records,
	// exercising the MaxRecords cap.
	bomb := []byte{0x00, 0x06, 0x00, 0x02, 0x02, 0x58}
	bomb = append(bomb, bytes.Repeat([]byte{0x00, 0x04, RecEndEl, 0x00}, 512)...)
	f.Add(bomb)
	// Shape bomb: header followed by a run of bare BOUNDARY records,
	// exercising the MaxShapes cap.
	shapes := []byte{0x00, 0x06, 0x00, 0x02, 0x02, 0x58}
	shapes = append(shapes, bytes.Repeat([]byte{0x00, 0x04, RecBoundary, 0x00}, 512)...)
	f.Add(shapes)
	// Record claiming the maximum payload but truncated after the header.
	f.Add([]byte{0xFF, 0xFF, RecXY, 0x03, 0x00, 0x00})

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
