package deffmt

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dummyfill/internal/geom"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
)

// oracleReader is the reference DEF reader the in-place tokenizer must
// match: it splits each line with strings.Fields and queues the tokens,
// and it does not check the COMPONENTS count.
type oracleReader struct {
	sc  *bufio.Scanner
	lim layio.Limits

	hdr     layio.Header
	rows    []rowRec
	stmt    []string // tokens of the statement being assembled
	queue   []string // tokens carried over past a ';' split
	records int64
	shapes  int64

	inComponents bool
	ended        bool
	err          error
}

// newOracleReader opens the reference reader. Zero limit fields are
// unlimited.
func newOracleReader(r io.Reader, lim layio.Limits) *oracleReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	return &oracleReader{sc: sc, lim: lim}
}

func (sr *oracleReader) Header() layio.Header { return sr.hdr }

func (sr *oracleReader) fail(format string, args ...any) (layio.Shape, error) {
	sr.err = fmt.Errorf("deffmt: "+format, args...)
	return layio.Shape{}, sr.err
}

func (sr *oracleReader) Next() (layio.Shape, error) {
	if sr.err != nil {
		return layio.Shape{}, sr.err
	}
	for {
		stmt, err := sr.nextStmt()
		if err == io.EOF {
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
		switch stmt[0] {
		case "VERSION", "UNITS", "BUSBITCHARS", "DIVIDERCHAR", "TECHNOLOGY", "HISTORY":
			// Accepted and ignored: no geometry. Coordinates pass through
			// as database units regardless of UNITS.
		case "DESIGN":
			if len(stmt) >= 2 {
				sr.hdr.Name = stmt[1]
			}
		case "DIEAREA":
			n, err := oracleInts(stmt[1:])
			if err != nil || len(n) != 4 {
				return sr.fail("malformed DIEAREA %v", stmt)
			}
			sr.hdr.Die = geom.R(n[0], n[1], n[2], n[3])
		case "ROW":
			if sr.inComponents {
				return sr.fail("ROW after COMPONENTS")
			}
			rec, err := oracleParseRow(stmt)
			if err != nil {
				return sr.fail("%v", err)
			}
			sr.rows = append(sr.rows, rec)
		case "COMPONENTS":
			if err := sr.deriveSites(); err != nil {
				sr.err = err
				return layio.Shape{}, err
			}
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
			if s.Layer >= sr.hdr.NumLayers {
				sr.hdr.NumLayers = s.Layer + 1
			}
			return s, nil
		case "END":
			what := ""
			if len(stmt) > 1 {
				what = stmt[1]
			}
			switch what {
			case "COMPONENTS":
				sr.inComponents = false
			case "DESIGN":
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

// deriveSites derives the lattice once, from the ROWs read so far.
func (sr *oracleReader) deriveSites() error {
	if sr.hdr.Sites != nil {
		return nil
	}
	sg, err := deriveSites(sr.rows)
	sr.hdr.Sites = sg
	return err
}

// finishHeader synthesizes the layout metadata a DEF deck implies: the
// derived lattice and permissive fill rules (abutting fillers are legal
// on a placement lattice, so MinSpace is 0 and the free regions are the
// exact complement of the placed components). An inconsistent ROW set in
// a rows-only deck fails the read, exactly as it would have at
// COMPONENTS.
func (sr *oracleReader) finishHeader() error {
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

// parseComponent turns one "- inst master + PLACED ( x y ) orient ;"
// statement into a shape, recovering geometry from the master name.
func (sr *oracleReader) parseComponent(stmt []string) (layio.Shape, error) {
	if len(stmt) < 3 {
		return layio.Shape{}, fmt.Errorf("deffmt: truncated component %v", stmt)
	}
	master := stmt[2]
	var x, y int64
	placed := false
	for i := 3; i < len(stmt); i++ {
		if stmt[i] != "PLACED" && stmt[i] != "FIXED" {
			continue
		}
		if i+2 >= len(stmt) {
			return layio.Shape{}, fmt.Errorf("deffmt: truncated placement in %v", stmt)
		}
		n, err := oracleInts(stmt[i+1 : i+3])
		if err != nil {
			return layio.Shape{}, fmt.Errorf("deffmt: bad placement coordinates in %v", stmt)
		}
		x, y, placed = n[0], n[1], true
		break
	}
	if !placed {
		return layio.Shape{}, fmt.Errorf("deffmt: component %s has no PLACED/FIXED location", stmt[1])
	}
	layer, datatype, w, h, err := oracleParseMaster(master, sr.hdr.Sites)
	if err != nil {
		return layio.Shape{}, err
	}
	return layio.Shape{
		Layer:    layer,
		Datatype: datatype,
		Rect:     geom.Rect{XL: x, YL: y, XH: x + w, YH: y + h},
	}, nil
}

// oracleParseMaster recovers a component's layer, datatype and size from its
// master name per the package's naming convention.
func oracleParseMaster(master string, sg *layout.SiteGrid) (layer, datatype int, w, h int64, err error) {
	// Explicit form: W<l>_<w>x<h> or F<l>_<w>x<h>.
	if len(master) >= 2 && (master[0] == 'W' || master[0] == 'F') && master[1] >= '0' && master[1] <= '9' {
		rest := master[1:]
		us := strings.IndexByte(rest, '_')
		xs := strings.IndexByte(rest, 'x')
		if us > 0 && xs > us {
			l, e1 := strconv.Atoi(rest[:us])
			wv, e2 := strconv.ParseInt(rest[us+1:xs], 10, 64)
			hv, e3 := strconv.ParseInt(rest[xs+1:], 10, 64)
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
	if xi := strings.LastIndexByte(master, 'X'); xi > 0 && xi < len(master)-1 {
		if sites, e := strconv.ParseInt(master[xi+1:], 10, 64); e == nil && sites > 0 {
			if sg == nil {
				return 0, 0, 0, 0, fmt.Errorf("deffmt: filler master %q needs ROW statements to size", master)
			}
			return 0, layio.DatatypeFill, sites * sg.SiteW, sg.RowH, nil
		}
	}
	return 0, 0, 0, 0, fmt.Errorf("deffmt: master %q does not encode geometry (want W<l>_<w>x<h>, F<l>_<w>x<h> or <prefix>X<sites>)", master)
}

// oracleParseRow parses "ROW name site x y orient [DO nx BY ny [STEP sx sy]]".
func oracleParseRow(stmt []string) (rowRec, error) {
	if len(stmt) < 5 {
		return rowRec{}, fmt.Errorf("deffmt: truncated ROW %v", stmt)
	}
	n, err := oracleInts(stmt[3:5])
	if err != nil {
		return rowRec{}, fmt.Errorf("deffmt: bad ROW origin in %v", stmt)
	}
	rec := rowRec{x: n[0], y: n[1], nx: 1, ny: 1}
	for i := 5; i < len(stmt); i++ {
		switch stmt[i] {
		case "DO":
			if i+3 >= len(stmt) || stmt[i+2] != "BY" {
				return rowRec{}, fmt.Errorf("deffmt: malformed DO/BY in %v", stmt)
			}
			c, err := oracleInts([]string{stmt[i+1], stmt[i+3]})
			if err != nil {
				return rowRec{}, fmt.Errorf("deffmt: bad DO/BY counts in %v", stmt)
			}
			rec.nx, rec.ny = c[0], c[1]
		case "STEP":
			if i+2 >= len(stmt) {
				return rowRec{}, fmt.Errorf("deffmt: malformed STEP in %v", stmt)
			}
			c, err := oracleInts(stmt[i+1 : i+3])
			if err != nil {
				return rowRec{}, fmt.Errorf("deffmt: bad STEP values in %v", stmt)
			}
			rec.sx, rec.sy = c[0], c[1]
		}
	}
	if rec.nx > 1 && rec.sx == 0 {
		return rowRec{}, fmt.Errorf("deffmt: ROW repeats %d sites without STEP in %v", rec.nx, stmt)
	}
	if rec.sx == 0 {
		rec.sx = 1 // single-site row: pitch is irrelevant but must be positive
	}
	return rec, nil
}

// nextStmt assembles the next ';'-terminated statement (or a bare END
// line) from the token stream, dropping '(' and ')' — parentheses only
// group coordinates in this subset. Comments run '#' to end of line.
func (sr *oracleReader) nextStmt() ([]string, error) {
	sr.stmt = sr.stmt[:0]
	for {
		// Drain carried-over tokens first.
		for len(sr.queue) > 0 {
			tok := sr.queue[0]
			sr.queue = sr.queue[1:]
			if tok == ";" {
				if len(sr.stmt) == 0 {
					continue // stray semicolon
				}
				return sr.stmt, nil
			}
			sr.stmt = append(sr.stmt, tok)
			if len(sr.stmt) == 1 && tok == "END" {
				// END sections have no ';': take the rest of the line.
				sr.stmt = append(sr.stmt, sr.queue...)
				sr.queue = sr.queue[:0]
				return sr.stmt, nil
			}
		}
		if !sr.sc.Scan() {
			if err := sr.sc.Err(); err != nil {
				return nil, fmt.Errorf("deffmt: %w", err)
			}
			if len(sr.stmt) > 0 {
				return nil, fmt.Errorf("deffmt: unterminated statement %v", sr.stmt)
			}
			return nil, io.EOF
		}
		sr.records++
		if sr.lim.MaxRecords > 0 && sr.records > sr.lim.MaxRecords {
			return nil, fmt.Errorf("deffmt: %w: %d lines", layio.ErrLimit, sr.records)
		}
		line := sr.sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, tok := range strings.Fields(line) {
			// Separate a trailing ';' glued to a token.
			semi := false
			if len(tok) > 1 && strings.HasSuffix(tok, ";") {
				tok, semi = tok[:len(tok)-1], true
			}
			if tok != "(" && tok != ")" {
				sr.queue = append(sr.queue, tok)
			}
			if semi {
				sr.queue = append(sr.queue, ";")
			}
		}
	}
}

// oracleInts parses a token slice as int64s, rejecting any non-numeric token.
func oracleInts(toks []string) ([]int64, error) {
	out := make([]int64, 0, len(toks))
	for _, t := range toks {
		v, err := strconv.ParseInt(t, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// readOutcome is everything a drained ShapeReader reports.
type readOutcome struct {
	shapes []layio.Shape
	hdr    layio.Header
	err    error // first error, io.EOF excluded
}

func readOut(sr layio.ShapeReader) readOutcome {
	var o readOutcome
	for {
		s, err := sr.Next()
		if err != nil {
			if err != io.EOF {
				o.err = err
			}
			o.hdr = sr.Header()
			return o
		}
		o.shapes = append(o.shapes, s)
	}
}

// FuzzReadMatchesOracle checks the in-place tokenizer against the
// strings.Fields reference reader in read_oracle_test.go: whatever the
// reader accepts, the oracle accepts with the same shapes and header;
// whatever the oracle rejects, the reader rejects. The one divergence
// allowed is the reader's COMPONENTS check (errComponents), which the
// oracle lacks.
// Run with `go test -fuzz FuzzReadMatchesOracle ./internal/deffmt`.
func FuzzReadMatchesOracle(f *testing.F) {
	addReadSeeds(f)
	for _, s := range []string{
		// White space strings.Fields splits on beyond the plain space,
		// and invalid UTF-8, which it does not.
		"COMPONENTS 1 ;\n-\u00a0a W0_4x4 +\u0085PLACED ( 0 0 ) N ;\nEND COMPONENTS\n",
		"DIEAREA\v( 0 0 )\f( 10 10 ) ;\r\nDESIGN\u2003d\u3000;\n",
		"DESIGN d\xc2 ;\nDESIGN \xc2\xa0\xa0e ;\nDIEAREA ( 0 0 ) ( 1 1\xc2) ;\n",
		// Glued ';', '(' and ')'.
		"DIEAREA (0 0) (10 10);\n",
		"DIEAREA ( 0 0 ) ( 10 10 ;) ;\nVERSION 5.8 ;; DESIGN d (; END DESIGN\n",
		"COMPONENTS 1;\n- a W0_4x4 + PLACED ( 1 2 ) N;\nEND COMPONENTS;\nEND DESIGN;\n",
		"DESIGN ;\n; ; DESIGN x ;;\nEND;\n",
		// Statements across lines, and END taking the rest of its line.
		"DIEAREA ( 0 0 )\n# note\n( 10 10 )\n;\nCOMPONENTS\n1 ;\n- a\nW0_4x4 + PLACED\n( 1 2 ) N ; END COMPONENTS ; x y\n",
		// Truncated and mis-counted COMPONENTS sections.
		"COMPONENTS 3 ;\n- a W0_4x4 + PLACED ( 0 0 ) N ;\n",
		"COMPONENTS 3 ;\n- a W0_4x4 + PLACED ( 0 0 ) N ;\nEND COMPONENTS\nEND DESIGN\n",
		"COMPONENTS x ;\nEND COMPONENTS\n",
		"COMPONENTS 1 ;\n- a W0_4x4 + PLACED ( 0 0 ) N ;\nEND DESIGN\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, lim := range []layio.Limits{{}, {MaxRecords: 16, MaxShapes: 2}} {
			got := readOut(NewShapeReader(bytes.NewReader(data), lim))
			want := readOut(newOracleReader(bytes.NewReader(data), lim))
			if len(got.shapes) > len(want.shapes) || !slices.Equal(got.shapes, want.shapes[:len(got.shapes)]) {
				t.Fatalf("limits %+v: shapes %v, oracle %v", lim, got.shapes, want.shapes)
			}
			switch {
			case got.err == nil && want.err != nil:
				t.Fatalf("limits %+v: accepted a deck the oracle rejects: %v", lim, want.err)
			case got.err == nil:
				if len(got.shapes) != len(want.shapes) || !reflect.DeepEqual(got.hdr, want.hdr) {
					t.Fatalf("limits %+v: %d shapes, header %+v; oracle %d shapes, header %+v",
						lim, len(got.shapes), got.hdr, len(want.shapes), want.hdr)
				}
			case errors.Is(got.err, errComponents):
			case want.err == nil:
				t.Fatalf("limits %+v: rejected a deck the oracle accepts: %v", lim, got.err)
			case len(got.shapes) != len(want.shapes):
				t.Fatalf("limits %+v: failed after %d shapes (%v), oracle after %d (%v)",
					lim, len(got.shapes), got.err, len(want.shapes), want.err)
			}
		}
	})
}
