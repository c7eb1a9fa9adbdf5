package deffmt

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"unicode"
	"unicode/utf8"

	"dummyfill/internal/geom"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
)

// maxRowRepeat, maxRowPitch and maxRowCoord cap ROW statements at
// implausible-but-safe magnitudes: repetition bounds the per-row origin
// walk in deriveSites, and pitch/origin bounds keep repetition × pitch
// products inside int64.
const (
	maxRowRepeat = 1 << 24
	maxRowPitch  = 1 << 32
	maxRowCoord  = 1 << 48
)

// rowRec is one parsed ROW statement before lattice derivation.
type rowRec struct {
	x, y   int64
	nx, ny int64
	sx, sy int64
}

// shapeReader streams COMPONENTS out of a DEF deck. The preamble
// (DESIGN, DIEAREA, ROW) is parsed on the way to the first component;
// everything the subset does not model (NETS, PINS, TRACKS, …) is
// rejected, and a COMPONENTS section must list exactly as many
// components as it declares and be closed by END COMPONENTS, so a deck
// that silently lost geometry cannot pass.
type shapeReader struct {
	sc  *bufio.Scanner
	lim layio.Limits

	hdr     layio.Header
	rows    []rowRec
	records int64
	shapes  int64

	// The tokenizer works in place on the scanner's current line: line
	// and pos are the unread rest of it, and semi is a ';' split off the
	// field just returned. stmt is the statement being assembled; its
	// tokens alias line except the first nheld, which hold copied into
	// held before a Scan could overwrite them.
	line  []byte
	pos   int
	semi  []byte
	stmt  [][]byte
	held  []byte
	nheld int

	// declared and listed count the open COMPONENTS section's components.
	declared, listed int64

	inComponents bool
	ended        bool
	err          error
}

// errComponents marks a COMPONENTS section that does not list what it
// declares: a malformed count, a count mismatch at END COMPONENTS, or a
// deck that ends inside the section.
var errComponents = errors.New("bad COMPONENTS section")

// NewShapeReader opens a streaming DEF reader. Zero limit fields are
// unlimited.
func NewShapeReader(r io.Reader, lim layio.Limits) layio.ShapeReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	return &shapeReader{sc: sc, lim: lim}
}

func (sr *shapeReader) Header() layio.Header { return sr.hdr }

func (sr *shapeReader) fail(format string, args ...any) (layio.Shape, error) {
	sr.err = fmt.Errorf("deffmt: "+format, args...)
	return layio.Shape{}, sr.err
}

// failOpen fails a deck that reaches at (the end of the deck, END DESIGN
// or another COMPONENTS) while a COMPONENTS section is open.
func (sr *shapeReader) failOpen(at string) (layio.Shape, error) {
	return sr.fail("%w: still open at %s after %d of %d components", errComponents, at, sr.listed, sr.declared)
}

func (sr *shapeReader) Next() (layio.Shape, error) {
	if sr.err != nil {
		return layio.Shape{}, sr.err
	}
	for {
		stmt, err := sr.nextStmt()
		if err == io.EOF {
			if sr.inComponents {
				return sr.failOpen("the end of the deck")
			}
			if ferr := sr.finishHeader(); ferr != nil {
				sr.err = ferr
				return layio.Shape{}, ferr
			}
			return layio.Shape{}, io.EOF
		}
		if err != nil {
			sr.err = err
			return layio.Shape{}, err
		}
		switch string(stmt[0]) {
		case "VERSION", "UNITS", "BUSBITCHARS", "DIVIDERCHAR", "TECHNOLOGY", "HISTORY":
			// Accepted and ignored: no geometry. Coordinates pass through
			// as database units regardless of UNITS.
		case "DESIGN":
			if len(stmt) >= 2 {
				sr.hdr.Name = string(stmt[1])
			}
		case "DIEAREA":
			n, err := ints(stmt[1:])
			if err != nil || len(stmt) != 5 {
				return sr.fail("malformed DIEAREA %v", strs(stmt))
			}
			sr.hdr.Die = geom.R(n[0], n[1], n[2], n[3])
		case "ROW":
			if sr.inComponents {
				return sr.fail("ROW after COMPONENTS")
			}
			rec, err := parseRow(stmt)
			if err != nil {
				return sr.fail("%v", err)
			}
			sr.rows = append(sr.rows, rec)
		case "COMPONENTS":
			if sr.inComponents {
				return sr.failOpen("COMPONENTS")
			}
			if err := sr.deriveSites(); err != nil {
				sr.err = err
				return layio.Shape{}, err
			}
			// The count is only checked against, never allocated from.
			n, err := ints(stmt[1:])
			if err != nil || len(stmt) != 2 || n[0] < 0 {
				return sr.fail("%w: malformed count in %v", errComponents, strs(stmt))
			}
			sr.declared, sr.listed = n[0], 0
			sr.inComponents = true
		case "-":
			if !sr.inComponents {
				return sr.fail("component statement outside COMPONENTS")
			}
			sr.shapes++
			if sr.lim.MaxShapes > 0 && sr.shapes > sr.lim.MaxShapes {
				return sr.fail("%w: %d components", layio.ErrLimit, sr.shapes)
			}
			s, err := sr.parseComponent(stmt)
			if err != nil {
				sr.err = err
				return layio.Shape{}, err
			}
			sr.listed++
			if s.Layer >= sr.hdr.NumLayers {
				sr.hdr.NumLayers = s.Layer + 1
			}
			return s, nil
		case "END":
			var what []byte
			if len(stmt) > 1 {
				what = stmt[1]
			}
			switch string(what) {
			case "COMPONENTS":
				if sr.inComponents && sr.listed != sr.declared {
					return sr.fail("%w: declares %d components, lists %d", errComponents, sr.declared, sr.listed)
				}
				sr.inComponents = false
			case "DESIGN":
				if sr.inComponents {
					return sr.failOpen("END DESIGN")
				}
				sr.ended = true
				if err := sr.finishHeader(); err != nil {
					sr.err = err
					return layio.Shape{}, err
				}
				return layio.Shape{}, io.EOF
			default:
				return sr.fail("unexpected END %s", what)
			}
		default:
			return sr.fail("unsupported statement %q (the DEF subset models DESIGN, DIEAREA, ROW and COMPONENTS)", stmt[0])
		}
	}
}

// finishHeader synthesizes the layout metadata a DEF deck implies: the
// derived lattice and permissive fill rules (abutting fillers are legal
// on a placement lattice, so MinSpace is 0 and the free regions are the
// exact complement of the placed components). An inconsistent ROW set in
// a rows-only deck fails the read, exactly as it would have at
// COMPONENTS.
func (sr *shapeReader) finishHeader() error {
	if sr.hdr.Sites == nil {
		if err := sr.deriveSites(); err != nil {
			return err
		}
	}
	sr.hdr.Rules = layout.Rules{MinWidth: 1, MinSpace: 0, MinArea: 1}
	if sr.hdr.NumLayers == 0 && sr.hdr.Sites != nil {
		sr.hdr.NumLayers = 1
	}
	return nil
}

// deriveSites derives the lattice from the ROW statements read so far,
// once: later ROWs do not change it.
func (sr *shapeReader) deriveSites() error {
	if sr.hdr.Sites != nil {
		return nil
	}
	sg, err := deriveSites(sr.rows)
	sr.hdr.Sites = sg
	return err
}

// deriveSites folds ROW statements into one uniform SiteGrid, or nil
// when there are none. Both per-row DEF (one statement per row, DO n BY
// 1) and the compact 2-D repetition (DO n BY m STEP sw rh) are accepted.
func deriveSites(rows []rowRec) (*layout.SiteGrid, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	var minX, minY, maxX, maxY int64
	var siteW, rowH, sites int64
	var ys []int64 // every row origin, sorted+deduped before derivation
	for i, r := range rows {
		if r.nx < 1 || r.ny < 1 || r.sx <= 0 {
			return nil, fmt.Errorf("deffmt: ROW with non-positive repetition %+v", r)
		}
		// Plausibility caps: they bound the y-origin walk below and keep
		// every product off int64 overflow, so a hostile deck cannot spin
		// or wrap the derivation.
		if r.nx > maxRowRepeat || r.ny > maxRowRepeat {
			return nil, fmt.Errorf("deffmt: ROW repetition %dx%d exceeds the %d cap", r.nx, r.ny, maxRowRepeat)
		}
		if r.sx > maxRowPitch || r.sy > maxRowPitch || r.x < -maxRowCoord || r.x > maxRowCoord || r.y < -maxRowCoord || r.y > maxRowCoord {
			return nil, fmt.Errorf("deffmt: ROW geometry out of range %+v", r)
		}
		if siteW == 0 {
			siteW = r.sx
		} else if r.sx != siteW {
			return nil, fmt.Errorf("deffmt: inconsistent site widths %d and %d", siteW, r.sx)
		}
		if r.ny > 1 {
			if r.sy <= 0 {
				return nil, fmt.Errorf("deffmt: ROW repeats %d rows with step %d", r.ny, r.sy)
			}
			if rowH == 0 {
				rowH = r.sy
			} else if r.sy != rowH {
				return nil, fmt.Errorf("deffmt: inconsistent row heights %d and %d", rowH, r.sy)
			}
		}
		for j := int64(0); j < r.ny; j++ {
			ys = append(ys, r.y+j*r.sy)
		}
		if i == 0 || r.x < minX {
			minX = r.x
		}
		if i == 0 || r.y < minY {
			minY = r.y
		}
		if e := r.x + r.nx*r.sx; i == 0 || e > maxX {
			maxX = e
		}
		if e := r.y + (r.ny-1)*r.sy; i == 0 || e > maxY {
			maxY = e
		}
		if r.nx > sites {
			sites = r.nx
		}
	}
	if rowH == 0 {
		// Per-row statements: the row height is the smallest positive
		// spacing between row origins.
		sort.Slice(ys, func(a, b int) bool { return ys[a] < ys[b] })
		ys = slices.Compact(ys)
		for _, y := range ys {
			if d := y - minY; d > 0 && (rowH == 0 || d < rowH) {
				rowH = d
			}
		}
		for _, y := range ys {
			if rowH == 0 || (y-minY)%rowH != 0 {
				return nil, fmt.Errorf("deffmt: cannot derive a uniform row height from ROW origins")
			}
		}
	}
	nrows := int((maxY-minY)/rowH) + 1
	sg := layout.SiteGrid{
		Origin: geom.Point{X: minX, Y: minY},
		SiteW:  siteW, RowH: rowH,
		Rows: nrows, Sites: int(sites),
	}
	if err := sg.Validate(); err != nil {
		return nil, fmt.Errorf("deffmt: derived site grid invalid: %w", err)
	}
	return &sg, nil
}

// parseComponent turns one "- inst master + PLACED ( x y ) orient ;"
// statement into a shape, recovering geometry from the master name.
func (sr *shapeReader) parseComponent(stmt [][]byte) (layio.Shape, error) {
	if len(stmt) < 3 {
		return layio.Shape{}, fmt.Errorf("deffmt: truncated component %v", strs(stmt))
	}
	master := stmt[2]
	var x, y int64
	placed := false
	for i := 3; i < len(stmt); i++ {
		if kw := string(stmt[i]); kw != "PLACED" && kw != "FIXED" {
			continue
		}
		if i+2 >= len(stmt) {
			return layio.Shape{}, fmt.Errorf("deffmt: truncated placement in %v", strs(stmt))
		}
		n, err := ints(stmt[i+1 : i+3])
		if err != nil {
			return layio.Shape{}, fmt.Errorf("deffmt: bad placement coordinates in %v", strs(stmt))
		}
		x, y, placed = n[0], n[1], true
		break
	}
	if !placed {
		return layio.Shape{}, fmt.Errorf("deffmt: component %s has no PLACED/FIXED location", stmt[1])
	}
	layer, datatype, w, h, err := parseMaster(master, sr.hdr.Sites)
	if err != nil {
		return layio.Shape{}, err
	}
	return layio.Shape{
		Layer:    layer,
		Datatype: datatype,
		Rect:     geom.Rect{XL: x, YL: y, XH: x + w, YH: y + h},
	}, nil
}

// parseMaster recovers a component's layer, datatype and size from its
// master name per the package's naming convention.
func parseMaster(master []byte, sg *layout.SiteGrid) (layer, datatype int, w, h int64, err error) {
	// Explicit form: W<l>_<w>x<h> or F<l>_<w>x<h>.
	if len(master) >= 2 && (master[0] == 'W' || master[0] == 'F') && master[1] >= '0' && master[1] <= '9' {
		rest := master[1:]
		us := bytes.IndexByte(rest, '_')
		xs := bytes.IndexByte(rest, 'x')
		if us > 0 && xs > us {
			l, e1 := strconv.Atoi(string(rest[:us]))
			wv, e2 := strconv.ParseInt(string(rest[us+1:xs]), 10, 64)
			hv, e3 := strconv.ParseInt(string(rest[xs+1:]), 10, 64)
			if e1 == nil && e2 == nil && e3 == nil && l >= 0 && wv > 0 && hv > 0 {
				dt := layio.DatatypeWire
				if master[0] == 'F' {
					dt = layio.DatatypeFill
				}
				return l, dt, wv, hv, nil
			}
		}
	}
	// Filler form: <prefix>X<sites>, one row tall.
	if xi := bytes.LastIndexByte(master, 'X'); xi > 0 && xi < len(master)-1 {
		if sites, e := strconv.ParseInt(string(master[xi+1:]), 10, 64); e == nil && sites > 0 {
			if sg == nil {
				return 0, 0, 0, 0, fmt.Errorf("deffmt: filler master %q needs ROW statements to size", master)
			}
			return 0, layio.DatatypeFill, sites * sg.SiteW, sg.RowH, nil
		}
	}
	return 0, 0, 0, 0, fmt.Errorf("deffmt: master %q does not encode geometry (want W<l>_<w>x<h>, F<l>_<w>x<h> or <prefix>X<sites>)", master)
}

// parseRow parses "ROW name site x y orient [DO nx BY ny [STEP sx sy]]".
func parseRow(stmt [][]byte) (rowRec, error) {
	if len(stmt) < 5 {
		return rowRec{}, fmt.Errorf("deffmt: truncated ROW %v", strs(stmt))
	}
	n, err := ints(stmt[3:5])
	if err != nil {
		return rowRec{}, fmt.Errorf("deffmt: bad ROW origin in %v", strs(stmt))
	}
	rec := rowRec{x: n[0], y: n[1], nx: 1, ny: 1}
	for i := 5; i < len(stmt); i++ {
		switch string(stmt[i]) {
		case "DO":
			if i+3 >= len(stmt) || string(stmt[i+2]) != "BY" {
				return rowRec{}, fmt.Errorf("deffmt: malformed DO/BY in %v", strs(stmt))
			}
			c, err := ints([][]byte{stmt[i+1], stmt[i+3]})
			if err != nil {
				return rowRec{}, fmt.Errorf("deffmt: bad DO/BY counts in %v", strs(stmt))
			}
			rec.nx, rec.ny = c[0], c[1]
		case "STEP":
			if i+2 >= len(stmt) {
				return rowRec{}, fmt.Errorf("deffmt: malformed STEP in %v", strs(stmt))
			}
			c, err := ints(stmt[i+1 : i+3])
			if err != nil {
				return rowRec{}, fmt.Errorf("deffmt: bad STEP values in %v", strs(stmt))
			}
			rec.sx, rec.sy = c[0], c[1]
		}
	}
	if rec.nx > 1 && rec.sx == 0 {
		return rowRec{}, fmt.Errorf("deffmt: ROW repeats %d sites without STEP in %v", rec.nx, strs(stmt))
	}
	if rec.sx == 0 {
		rec.sx = 1 // single-site row: pitch is irrelevant but must be positive
	}
	return rec, nil
}

// nextStmt assembles the next ';'-terminated statement (or a bare END
// line) from the token stream. Comments run '#' to end of line.
func (sr *shapeReader) nextStmt() ([][]byte, error) {
	sr.stmt, sr.held, sr.nheld = sr.stmt[:0], sr.held[:0], 0
	for {
		for tok := sr.token(); tok != nil; tok = sr.token() {
			if len(tok) == 1 && tok[0] == ';' {
				if len(sr.stmt) == 0 {
					continue // stray semicolon
				}
				return sr.stmt, nil
			}
			sr.stmt = append(sr.stmt, tok)
			if len(sr.stmt) == 1 && string(tok) == "END" {
				// END sections have no ';': take the rest of the line.
				for tok = sr.token(); tok != nil; tok = sr.token() {
					sr.stmt = append(sr.stmt, tok)
				}
				return sr.stmt, nil
			}
		}
		if len(sr.stmt) > sr.nheld {
			sr.hold()
		}
		if !sr.sc.Scan() {
			if err := sr.sc.Err(); err != nil {
				return nil, fmt.Errorf("deffmt: %w", err)
			}
			if len(sr.stmt) > 0 {
				return nil, fmt.Errorf("deffmt: unterminated statement %v", strs(sr.stmt))
			}
			return nil, io.EOF
		}
		sr.records++
		if sr.lim.MaxRecords > 0 && sr.records > sr.lim.MaxRecords {
			return nil, fmt.Errorf("deffmt: %w: %d lines", layio.ErrLimit, sr.records)
		}
		line := sr.sc.Bytes()
		if i := bytes.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		sr.line, sr.pos = line, 0
	}
}

// hold copies the statement's tokens into sr.held, where the next Scan
// cannot overwrite them. Tokens held on an earlier line already sit
// there, in order, as its prefix.
func (sr *shapeReader) hold() {
	for _, t := range sr.stmt[sr.nheld:] {
		sr.held = append(sr.held, t...)
	}
	off := 0
	for i, t := range sr.stmt {
		sr.stmt[i] = sr.held[off : off+len(t) : off+len(t)]
		off += len(t)
	}
	sr.nheld = len(sr.stmt)
}

// token returns the current line's next token, or nil at its end: a ';'
// glued to the end of a field is split off as a token of its own, and
// '(' and ')' are dropped — parentheses only group coordinates in this
// subset.
func (sr *shapeReader) token() []byte {
	for {
		if t := sr.semi; t != nil {
			sr.semi = nil
			return t
		}
		f := sr.field()
		if f == nil {
			return nil
		}
		if n := len(f); n > 1 && f[n-1] == ';' {
			f, sr.semi = f[:n-1], f[n-1:]
		}
		if len(f) != 1 || (f[0] != '(' && f[0] != ')') {
			return f
		}
	}
}

// field returns the current line's next run of non-space characters, or
// nil at its end. Space is what strings.Fields splits on: unicode.IsSpace
// of the line decoded as UTF-8, where an invalid byte is no space.
func (sr *shapeReader) field() []byte {
	line, i := sr.line, sr.pos
	for i < len(line) {
		n, sp := space(line[i:])
		if !sp {
			break
		}
		i += n
	}
	start := i
	for i < len(line) {
		n, sp := space(line[i:])
		if sp {
			break
		}
		i += n
	}
	sr.pos = i
	if start == i {
		return nil
	}
	return line[start:i]
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// space returns the byte width of the character b starts with and
// whether it is white space.
func space(b []byte) (int, bool) {
	if c := b[0]; c < utf8.RuneSelf {
		return 1, asciiSpace[c]
	}
	r, n := utf8.DecodeRune(b)
	return n, unicode.IsSpace(r)
}

// ints parses up to four tokens as int64s, rejecting any non-numeric
// token.
func ints(toks [][]byte) (n [4]int64, err error) {
	if len(toks) > len(n) {
		return n, fmt.Errorf("deffmt: %d numbers where at most %d fit", len(toks), len(n))
	}
	for i, t := range toks {
		if n[i], err = strconv.ParseInt(string(t), 10, 64); err != nil {
			return n, err
		}
	}
	return n, nil
}

// strs renders a statement's tokens as strings for an error message.
func strs(stmt [][]byte) []string {
	out := make([]string, len(stmt))
	for i, t := range stmt {
		out[i] = string(t)
	}
	return out
}
