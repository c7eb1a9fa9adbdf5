// Package oasis implements a subset of the OASIS (SEMI P39) layout
// interchange format sufficient for fill solutions: START/END, CELL and
// RECTANGLE records with modal-variable compression. The paper's §1
// motivates file size as a first-class objective and names GDSII and
// OASIS as the standard formats; OASIS's modal variables make the
// fills-vs-bytes relationship even sharper (a repeated same-size fill
// costs a handful of bytes instead of GDSII's 64).
package oasis

import (
	"bufio"
	"fmt"
	"io"
)

// Record type bytes used by this subset.
const (
	recPad       = 0
	recStart     = 1
	recEnd       = 2
	recCellStr   = 14 // CELL with inline name string
	recRectangle = 20
)

// Magic is the OASIS stream header.
const Magic = "%SEMI-OASIS\r\n"

// writeUint emits an unsigned integer in OASIS 7-bit little-endian
// varint encoding.
func writeUint(w *bufio.Writer, v uint64) error {
	for {
		b := byte(v & 0x7F)
		v >>= 7
		if v != 0 {
			b |= 0x80
		}
		if err := w.WriteByte(b); err != nil {
			return err
		}
		if v == 0 {
			return nil
		}
	}
}

// writeSint emits a signed integer: magnitude shifted left with the sign
// in bit 0.
func writeSint(w *bufio.Writer, v int64) error {
	var u uint64
	if v < 0 {
		u = uint64(-v)<<1 | 1
	} else {
		u = uint64(v) << 1
	}
	return writeUint(w, u)
}

// writeString emits a length-prefixed byte string.
func writeString(w *bufio.Writer, s string) error {
	if err := writeUint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

// writeRealWhole emits a real number of type 0 (positive whole number).
func writeRealWhole(w *bufio.Writer, v uint64) error {
	if err := writeUint(w, 0); err != nil {
		return err
	}
	return writeUint(w, v)
}

// reader wraps a bufio.Reader with OASIS primitive decoding.
type reader struct {
	br *bufio.Reader
}

func (r *reader) readUint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		b, err := r.br.ReadByte()
		if err != nil {
			if err == io.EOF {
				return 0, fmt.Errorf("oasis: truncated integer")
			}
			return 0, err
		}
		if shift >= 63 && b > 1 {
			return 0, fmt.Errorf("oasis: integer overflow")
		}
		v |= uint64(b&0x7F) << shift
		if b&0x80 == 0 {
			return v, nil
		}
		shift += 7
	}
}

func (r *reader) readSint() (int64, error) {
	u, err := r.readUint()
	if err != nil {
		return 0, err
	}
	mag := int64(u >> 1)
	if u&1 != 0 {
		return -mag, nil
	}
	return mag, nil
}

func (r *reader) readString() (string, error) {
	n, err := r.readUint()
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("oasis: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return "", fmt.Errorf("oasis: truncated string: %v", err)
	}
	return string(buf), nil
}

// readReal decodes the real types this subset emits (0/1: whole numbers).
func (r *reader) readReal() (float64, error) {
	typ, err := r.readUint()
	if err != nil {
		return 0, err
	}
	switch typ {
	case 0:
		v, err := r.readUint()
		return float64(v), err
	case 1:
		v, err := r.readUint()
		return -float64(v), err
	default:
		return 0, fmt.Errorf("oasis: unsupported real type %d", typ)
	}
}
