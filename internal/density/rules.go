package density

import "dummyfill/internal/grid"

// This file implements density-rule checking: §1 of the paper describes
// density analysis as identifying "regions with violations of density
// rules (lower/upper bound)". Foundry decks specify a minimum and maximum
// metal density per window; windows outside the band are rule violations
// that fill insertion (minimum side) or slotting (maximum side) must fix.

// RuleViolation reports one window outside the allowed density band.
type RuleViolation struct {
	I, J    int     // window coordinates
	Density float64 // measured density
	Low     bool    // true: below the minimum; false: above the maximum
}

// CheckRules returns the windows of m whose density lies outside
// [minDensity, maxDensity]. Use maxDensity <= 0 to disable the upper
// check.
func CheckRules(m *grid.Map, minDensity, maxDensity float64) []RuleViolation {
	g := m.G
	var out []RuleViolation
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			d := m.At(i, j)
			switch {
			case d < minDensity:
				out = append(out, RuleViolation{I: i, J: j, Density: d, Low: true})
			case maxDensity > 0 && d > maxDensity:
				out = append(out, RuleViolation{I: i, J: j, Density: d})
			}
		}
	}
	return out
}
