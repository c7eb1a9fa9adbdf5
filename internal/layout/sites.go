package layout

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dummyfill/internal/geom"
)

// SiteGrid describes a uniform standard-cell placement lattice: Rows
// horizontal placement rows of height RowH stacked from Origin upward,
// each divided into Sites columns of width SiteW. Placed components —
// and site-mode dummy fillers — occupy whole sites of whole rows, so
// every legal shape is an integer number of sites wide and exactly one
// row tall. DEF layouts carry the lattice in their ROW statements; the
// synthetic row design generates one covering the die.
type SiteGrid struct {
	Origin geom.Point // lower-left corner of row 0, site 0
	SiteW  int64      // site width (placement pitch)
	RowH   int64      // row height
	Rows   int        // number of rows
	Sites  int        // number of sites per row
}

// Validate checks lattice sanity.
func (s SiteGrid) Validate() error {
	if s.SiteW <= 0 || s.RowH <= 0 {
		return fmt.Errorf("layout: site grid needs positive SiteW and RowH, got %d×%d", s.SiteW, s.RowH)
	}
	if s.Rows <= 0 || s.Sites <= 0 {
		return fmt.Errorf("layout: site grid needs positive Rows and Sites, got %d×%d", s.Rows, s.Sites)
	}
	return nil
}

// RowY returns the bottom edge of row j.
func (s SiteGrid) RowY(j int) int64 { return s.Origin.Y + int64(j)*s.RowH }

// SiteX returns the left edge of site i.
func (s SiteGrid) SiteX(i int) int64 { return s.Origin.X + int64(i)*s.SiteW }

// Bounds returns the rectangle covered by the whole lattice.
func (s SiteGrid) Bounds() geom.Rect {
	return geom.Rect{
		XL: s.Origin.X, YL: s.Origin.Y,
		XH: s.SiteX(s.Sites), YH: s.RowY(s.Rows),
	}
}

// Aligned reports whether r is a legal site-grid shape: bottom on a row
// boundary, exactly one row tall, and both vertical edges on site
// boundaries within the lattice.
func (s SiteGrid) Aligned(r geom.Rect) bool {
	if r.H() != s.RowH || (r.YL-s.Origin.Y)%s.RowH != 0 {
		return false
	}
	if (r.XL-s.Origin.X)%s.SiteW != 0 || (r.XH-s.Origin.X)%s.SiteW != 0 {
		return false
	}
	b := s.Bounds()
	return r.XL >= b.XL && r.XH <= b.XH && r.YL >= b.YL && r.YH <= b.YH
}

// FillLib is a discrete filler-cell master library: the legal fill
// widths, in sites, a site-mode filler may take. Master names follow the
// OpenROAD filler convention Prefix + width-in-sites (FILL_X1, FILL_X2,
// …); the writer derives the master from a filler's width and the reader
// recovers the width from the name, so no LEF is needed for the subset.
type FillLib struct {
	Prefix string  // master name prefix, e.g. "FILL_X"
	Widths []int64 // legal widths in sites, ascending, all positive
}

// DefaultFillLib returns the power-of-two library the synthetic row
// design and the CLIs use when no explicit library is configured.
func DefaultFillLib() *FillLib {
	return &FillLib{Prefix: "FILL_X", Widths: []int64{1, 2, 4, 8, 16, 32}}
}

// Validate checks library sanity.
func (fl *FillLib) Validate() error {
	if fl.Prefix == "" {
		return fmt.Errorf("layout: fill library needs a master name prefix")
	}
	if len(fl.Widths) == 0 {
		return fmt.Errorf("layout: fill library needs at least one width")
	}
	for i, w := range fl.Widths {
		if w <= 0 {
			return fmt.Errorf("layout: fill library width %d must be positive, got %d", i, w)
		}
		if i > 0 && w <= fl.Widths[i-1] {
			return fmt.Errorf("layout: fill library widths must be strictly ascending, got %v", fl.Widths)
		}
	}
	return nil
}

// ID is the library's identity string for cache fingerprints and
// benchmark rows: the prefix plus the width list.
func (fl *FillLib) ID() string {
	var b strings.Builder
	b.WriteString(fl.Prefix)
	for i, w := range fl.Widths {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(w, 10))
	}
	return b.String()
}

// AppendMaster appends the name of the library master of a filler that
// is sites sites wide.
func (fl *FillLib) AppendMaster(b []byte, sites int64) []byte {
	return strconv.AppendInt(append(b, fl.Prefix...), sites, 10)
}

// WidthFor returns the largest library width not exceeding maxSites, or
// 0 when even the smallest master does not fit.
func (fl *FillLib) WidthFor(maxSites int64) int64 {
	i := sort.Search(len(fl.Widths), func(i int) bool { return fl.Widths[i] > maxSites })
	if i == 0 {
		return 0
	}
	return fl.Widths[i-1]
}
