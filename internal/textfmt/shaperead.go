package textfmt

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
)

// ShapeReader streams shapes out of a text layout or solution file,
// accepting either grammar: wires and fill regions carry the layer of
// the preceding 'layer' directive, fills their inline layer. Metadata
// directives (layout/die/window/rules) accumulate into Header.
type ShapeReader struct {
	sc  *bufio.Scanner
	lim layio.Limits
	hdr layio.Header

	cur    int // last 'layer' index, -1 before any
	lineNo int
	done   bool
	err    error

	records, shapes int64
}

// NewShapeReader opens a streaming reader over r under lim, accepting
// both the layout and solution grammars. lim.MaxRecords caps directive
// lines, lim.MaxShapes the wire/region/fill directives among them.
func NewShapeReader(r io.Reader, lim layio.Limits) *ShapeReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	return &ShapeReader{sc: sc, lim: lim, cur: -1}
}

// Header returns the metadata gathered so far; after Next has returned
// io.EOF it is complete.
func (sr *ShapeReader) Header() layio.Header { return sr.hdr }

// Next returns the next shape, io.EOF at end of input, or a terminal
// parse error. Errors are sticky.
func (sr *ShapeReader) Next() (layio.Shape, error) {
	if sr.err != nil {
		return layio.Shape{}, sr.err
	}
	if sr.done {
		return layio.Shape{}, io.EOF
	}
	s, err := sr.advance()
	if err != nil && err != io.EOF {
		sr.err = err
	}
	return s, err
}

func (sr *ShapeReader) advance() (layio.Shape, error) {
	for sr.sc.Scan() {
		sr.lineNo++
		line := strings.TrimSpace(sr.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sr.records++
		if sr.lim.MaxRecords > 0 && sr.records > sr.lim.MaxRecords {
			return layio.Shape{}, fmt.Errorf("textfmt: %w: more than %d records", layio.ErrLimit, sr.lim.MaxRecords)
		}
		fields := strings.Fields(line)
		// Every parse diagnostic quotes the whole offending line.
		bad := func(msg string) error {
			return fmt.Errorf("textfmt: line %d: %s: %q", sr.lineNo, msg, line)
		}
		switch fields[0] {
		case "layout":
			if len(fields) != 2 {
				return layio.Shape{}, bad("layout needs a name")
			}
			sr.hdr.Name = fields[1]
			sr.hdr.HasLayoutMeta = true
		case "die":
			r, err := parseRect(fields[1:])
			if err != nil {
				return layio.Shape{}, bad(err.Error())
			}
			sr.hdr.Die = r
		case "window":
			if len(fields) != 2 {
				return layio.Shape{}, bad("window needs a size")
			}
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return layio.Shape{}, bad(err.Error())
			}
			sr.hdr.Window = v
		case "rules":
			if len(fields) != 5 {
				return layio.Shape{}, bad("rules needs 4 values")
			}
			vals, err := parseInts(fields[1:])
			if err != nil {
				return layio.Shape{}, bad(err.Error())
			}
			sr.hdr.Rules = layout.Rules{
				MinWidth: vals[0], MinSpace: vals[1],
				MinArea: vals[2], MaxFillDim: vals[3],
			}
		case "layer":
			if len(fields) != 2 {
				return layio.Shape{}, bad("layer needs an index")
			}
			idx, err := strconv.Atoi(fields[1])
			if err != nil || idx != sr.hdr.NumLayers {
				return layio.Shape{}, bad("layer indices must be sequential from 0")
			}
			sr.cur = idx
			sr.hdr.NumLayers = idx + 1
		case "wire", "region":
			if sr.cur < 0 {
				return layio.Shape{}, bad("shape before any 'layer' directive")
			}
			r, err := parseRect(fields[1:])
			if err != nil {
				return layio.Shape{}, bad(err.Error())
			}
			sr.shapes++
			if sr.lim.MaxShapes > 0 && sr.shapes > sr.lim.MaxShapes {
				return layio.Shape{}, fmt.Errorf("textfmt: %w: more than %d shapes", layio.ErrLimit, sr.lim.MaxShapes)
			}
			dt := layio.DatatypeWire
			if fields[0] == "region" {
				dt = layio.DatatypeRegion
			}
			return layio.Shape{Layer: sr.cur, Datatype: dt, Rect: r}, nil
		case "solution":
			if len(fields) != 2 {
				return layio.Shape{}, bad("solution needs a name")
			}
			sr.hdr.Name = fields[1]
		case "fill":
			if len(fields) != 6 {
				return layio.Shape{}, bad("fill needs 5 values")
			}
			li, err := strconv.Atoi(fields[1])
			if err != nil || li < 0 {
				return layio.Shape{}, bad("bad layer")
			}
			r, err := parseRect(fields[2:])
			if err != nil {
				return layio.Shape{}, bad(err.Error())
			}
			sr.shapes++
			if sr.lim.MaxShapes > 0 && sr.shapes > sr.lim.MaxShapes {
				return layio.Shape{}, fmt.Errorf("textfmt: %w: more than %d shapes", layio.ErrLimit, sr.lim.MaxShapes)
			}
			if li+1 > sr.hdr.NumLayers {
				sr.hdr.NumLayers = li + 1
			}
			return layio.Shape{Layer: li, Datatype: layio.DatatypeFill, Rect: r}, nil
		default:
			return layio.Shape{}, bad("unknown directive")
		}
	}
	if err := sr.sc.Err(); err != nil {
		return layio.Shape{}, err
	}
	sr.done = true
	return layio.Shape{}, io.EOF
}
