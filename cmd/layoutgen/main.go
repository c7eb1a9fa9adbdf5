// Command layoutgen generates one of the synthetic benchmark designs and
// writes it as a GDSII file (wires only, datatype 0):
//
//	layoutgen -design s -o s.gds
//
// The file can be fed to fillgen and gdscat.
package main

import (
	"flag"
	"fmt"
	"os"

	_ "dummyfill/internal/deffmt" // registers the def format
	_ "dummyfill/internal/gdsii"  // registers the gds format
	"dummyfill/internal/layio"
	"dummyfill/internal/synth"
	"dummyfill/internal/textfmt"
)

func main() {
	design := flag.String("design", "s", "design name: s, b, m, row or tiny")
	out := flag.String("o", "", "output path (default <design>.gds, .txt or .def)")
	format := flag.String("format", "gds", "output format: gds, text or def (def carries the placement rows site mode needs)")
	stats := flag.Bool("stats", false, "print layout statistics")
	flag.Parse()

	sp, err := synth.ByName(*design)
	if err != nil {
		fatal(err)
	}
	lay, err := synth.Generate(sp)
	if err != nil {
		fatal(err)
	}
	if *stats {
		st := lay.Statistics()
		fmt.Printf("design %s: layers=%d shapes=%d windows=%d die=%v\n",
			st.Name, st.NumLayers, st.NumShapes, st.NumWindows, lay.Die)
		for li, d := range st.WireDens {
			fmt.Printf("  layer %d: wire density %.4f, fill-region area %d\n", li, d, st.FillArea[li])
		}
	}
	path := *out
	if path == "" {
		ext := ".gds"
		switch *format {
		case "text":
			ext = ".txt"
		case "def":
			ext = ".def"
		}
		path = *design + ext
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	switch *format {
	case "gds", "def":
		var lf layio.Format
		if lf, err = layio.Lookup(*format); err == nil {
			err = layio.WriteDeck(f, lf, layio.LayoutDeck, lay, nil)
		}
	case "text":
		// The layout grammar (die, window, rules, regions), not the
		// text format's fills-only deck.
		err = textfmt.WriteLayout(f, lay)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fatal(err)
	}
	info, err := f.Stat()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", path, info.Size())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "layoutgen:", err)
	os.Exit(1)
}
