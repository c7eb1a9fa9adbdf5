package oasis

import (
	"bufio"
	"fmt"
	"io"
)

// StreamWriter emits an OASIS stream incrementally: START record, cell,
// then rectangles one at a time with modal-variable compression, then the
// padded END record. It is the one OASIS encoder: the registered
// ShapeWriter (and so every deck) writes through it. The modal state
// machine is inherently sequential: shapes compress best when
// consecutive calls share layer and dimensions (see ModalSorted).
//
// Call order: Begin, WriteShape…, Close. A StreamWriter is not safe for
// concurrent use.
type StreamWriter struct {
	bw     *bufio.Writer
	began  bool
	closed bool

	// Modal state shared with the record just written.
	mLayer, mDatatype int
	mW, mH            int64
	mValid            bool
}

// NewStreamWriter wraps w; output is buffered and flushed by Close.
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{bw: bufio.NewWriter(w)}
}

// Begin writes the magic, START record and cell header. A zero unit
// selects the default 1000 grid points per micron; an empty cell name
// becomes "TOP".
func (sw *StreamWriter) Begin(cell string, unit uint64) error {
	if sw.began {
		return fmt.Errorf("oasis: Begin called twice")
	}
	sw.began = true
	if _, err := sw.bw.WriteString(Magic); err != nil {
		return err
	}
	// START: version, unit, offset-flag 0 + 12 zero table offsets.
	if err := writeUint(sw.bw, recStart); err != nil {
		return err
	}
	if err := writeString(sw.bw, "1.0"); err != nil {
		return err
	}
	if unit == 0 {
		unit = 1000
	}
	if err := writeRealWhole(sw.bw, unit); err != nil {
		return err
	}
	if err := writeUint(sw.bw, 0); err != nil { // offset-flag: table offsets here
		return err
	}
	for i := 0; i < 12; i++ {
		if err := writeUint(sw.bw, 0); err != nil {
			return err
		}
	}
	if cell == "" {
		cell = "TOP"
	}
	if err := writeUint(sw.bw, recCellStr); err != nil {
		return err
	}
	return writeString(sw.bw, cell)
}

// WriteShape emits one rectangle, re-emitting only the modal fields
// (layer, datatype, width, height) that differ from the previous record.
func (sw *StreamWriter) WriteShape(s Shape) error {
	if !sw.began || sw.closed {
		return fmt.Errorf("oasis: WriteShape outside an open stream")
	}
	r := s.Rect
	if r.Empty() {
		return fmt.Errorf("oasis: empty rectangle %v", r)
	}
	var info byte
	// Bits: S(7) W(6) H(5) X(4) Y(3) R(2) D(1) L(0).
	info |= 1 << 4 // X always present
	info |= 1 << 3 // Y always present
	if !sw.mValid || s.Layer != sw.mLayer {
		info |= 1 << 0
	}
	if !sw.mValid || s.Datatype != sw.mDatatype {
		info |= 1 << 1
	}
	square := r.W() == r.H()
	if square {
		info |= 1 << 7
		if !sw.mValid || r.W() != sw.mW {
			info |= 1 << 6
		}
	} else {
		if !sw.mValid || r.W() != sw.mW {
			info |= 1 << 6
		}
		if !sw.mValid || r.H() != sw.mH {
			info |= 1 << 5
		}
	}
	if err := writeUint(sw.bw, recRectangle); err != nil {
		return err
	}
	if err := sw.bw.WriteByte(info); err != nil {
		return err
	}
	if info&(1<<0) != 0 {
		if err := writeUint(sw.bw, uint64(s.Layer)); err != nil {
			return err
		}
	}
	if info&(1<<1) != 0 {
		if err := writeUint(sw.bw, uint64(s.Datatype)); err != nil {
			return err
		}
	}
	if info&(1<<6) != 0 {
		if err := writeUint(sw.bw, uint64(r.W())); err != nil {
			return err
		}
	}
	if info&(1<<5) != 0 {
		if err := writeUint(sw.bw, uint64(r.H())); err != nil {
			return err
		}
	}
	if err := writeSint(sw.bw, r.XL); err != nil {
		return err
	}
	if err := writeSint(sw.bw, r.YL); err != nil {
		return err
	}
	sw.mLayer, sw.mDatatype = s.Layer, s.Datatype
	sw.mW = r.W()
	if square {
		sw.mH = r.W()
	} else {
		sw.mH = r.H()
	}
	sw.mValid = true
	return nil
}

// Close writes the padded END record and flushes. The StreamWriter is
// unusable afterwards.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return nil
	}
	if !sw.began {
		return fmt.Errorf("oasis: Close before Begin")
	}
	sw.closed = true
	// END record padded to exactly 256 bytes: type byte + padding string +
	// validation scheme 0.
	if err := writeUint(sw.bw, recEnd); err != nil {
		return err
	}
	// 256 = 1 (type) + 2 (string length can be 1 or 2 bytes; pad is 252
	// so length 252 encodes in 2 bytes) + 252 (padding) + 1 (validation).
	pad := make([]byte, 252)
	if err := writeUint(sw.bw, uint64(len(pad))); err != nil {
		return err
	}
	if _, err := sw.bw.Write(pad); err != nil {
		return err
	}
	if err := writeUint(sw.bw, 0); err != nil { // validation: none
		return err
	}
	return sw.bw.Flush()
}
