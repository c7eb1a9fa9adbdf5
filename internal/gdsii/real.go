package gdsii

import (
	"encoding/binary"
	"math"
)

// GDSII 8-byte reals are excess-64 base-16 floating point: bit 0 is the
// sign, bits 1-7 the exponent (power of 16, biased by 64), bits 8-63 a
// 56-bit unsigned mantissa interpreted as a fraction in [1/16, 1).

// encodeReal8 converts a float64 to the GDSII 8-byte real representation.
func encodeReal8(f float64) uint64 {
	if f == 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	var sign uint64
	if f < 0 {
		sign = 1 << 63
		f = -f
	}
	// Normalize: find e such that f = mant * 16^e with mant in [1/16, 1).
	exp := 0
	for f >= 1 {
		f /= 16
		exp++
	}
	for f < 1.0/16 {
		f *= 16
		exp--
	}
	mant := uint64(f * (1 << 56))
	if mant >= 1<<56 { // rounding overflow
		mant >>= 4
		exp++
	}
	e := uint64(exp+64) & 0x7F
	return sign | e<<56 | mant
}

func writeReal8s(w interface{ Write([]byte) (int, error) }, typ byte, vals ...float64) error {
	data := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint64(data[8*i:], encodeReal8(v))
	}
	return writeRecord(w, typ, DTReal8, data)
}
