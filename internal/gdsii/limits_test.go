package gdsii

import (
	"bytes"
	"errors"
	"testing"

	"dummyfill/internal/layio"
)

func TestShapeReaderMaxShapes(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLibrary().Write(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes() // two boundaries

	if _, _, err := drain(bytes.NewReader(valid), layio.Limits{MaxShapes: 2}); err != nil {
		t.Fatalf("limit equal to shape count must pass: %v", err)
	}
	_, _, err := drain(bytes.NewReader(valid), layio.Limits{MaxShapes: 1})
	if !errors.Is(err, layio.ErrLimit) {
		t.Fatalf("MaxShapes=1 on 2-shape stream: got %v, want layio.ErrLimit", err)
	}
}

func TestShapeReaderMaxRecords(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLibrary().Write(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	_, _, err := drain(bytes.NewReader(valid), layio.Limits{MaxRecords: 3})
	if !errors.Is(err, layio.ErrLimit) {
		t.Fatalf("tiny MaxRecords: got %v, want layio.ErrLimit", err)
	}
	if _, _, err := drain(bytes.NewReader(valid), layio.Limits{MaxRecords: 1 << 20}); err != nil {
		t.Fatalf("generous MaxRecords must pass: %v", err)
	}
}

func TestShapeReaderZeroIsUnlimited(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLibrary().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := drain(bytes.NewReader(buf.Bytes()), layio.Limits{}); err != nil {
		t.Fatalf("layio.Limits{} must be unlimited: %v", err)
	}
}

// TestShapeReaderStopsRecordBomb builds a stream that is one HEADER
// followed by an endless run of minimal records: the record cap must cut
// parsing off with layio.ErrLimit instead of looping to the end.
func TestShapeReaderStopsRecordBomb(t *testing.T) {
	bomb := []byte{0x00, 0x06, 0x00, 0x02, 0x02, 0x58} // HEADER v600
	endel := []byte{0x00, 0x04, RecEndEl, 0x00}
	for i := 0; i < 10000; i++ {
		bomb = append(bomb, endel...)
	}
	_, _, err := drain(bytes.NewReader(bomb), layio.Limits{MaxRecords: 100})
	if !errors.Is(err, layio.ErrLimit) {
		t.Fatalf("record bomb: got %v, want layio.ErrLimit", err)
	}
}
