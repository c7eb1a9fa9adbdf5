package exp

import (
	"errors"
	"testing"
	"time"
)

func TestMeasureTimesAndSucceeds(t *testing.T) {
	sec, mem, err := Measure(func() error {
		time.Sleep(30 * time.Millisecond)
		// Allocate something observable.
		buf := make([]byte, 16<<20)
		for i := range buf {
			buf[i] = byte(i)
		}
		_ = buf
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sec < 0.03 {
		t.Fatalf("measured %.3fs for a 30ms function", sec)
	}
	if mem <= 0 {
		t.Fatalf("memory measurement %v MiB", mem)
	}
}

func TestMeasurePropagatesError(t *testing.T) {
	want := errors.New("boom")
	_, _, err := Measure(func() error { return want })
	if !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
}

func TestMeasureFastFunction(t *testing.T) {
	// A function faster than the sampler period must still measure.
	sec, mem, err := Measure(func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if sec < 0 || mem <= 0 {
		t.Fatalf("sec=%v mem=%v", sec, mem)
	}
}
