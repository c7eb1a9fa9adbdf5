package density

import (
	"testing"

	"dummyfill/internal/grid"
)

func TestCheckRules(t *testing.T) {
	m := mapOf(t, 2, 2, 0.1, 0.5, 0.6, 0.95)
	vs := CheckRules(m, 0.2, 0.9)
	if len(vs) != 2 {
		t.Fatalf("violations = %d, want 2 (%v)", len(vs), vs)
	}
	var low, high int
	for _, v := range vs {
		if v.Low {
			low++
			if v.Density != 0.1 {
				t.Fatalf("low violation density %v", v.Density)
			}
		} else {
			high++
			if v.Density != 0.95 {
				t.Fatalf("high violation density %v", v.Density)
			}
		}
	}
	if low != 1 || high != 1 {
		t.Fatalf("low=%d high=%d", low, high)
	}
}

func TestCheckRulesUpperDisabled(t *testing.T) {
	m := mapOf(t, 2, 1, 0.5, 0.99)
	if vs := CheckRules(m, 0.2, 0); len(vs) != 0 {
		t.Fatalf("disabled upper bound still flagged: %v", vs)
	}
}

func TestRulePassRate(t *testing.T) {
	m := mapOf(t, 2, 2, 0.1, 0.5, 0.5, 0.5)
	if got := RulePassRate(m, 0.2, 0.9); got != 0.75 {
		t.Fatalf("pass rate = %v, want 0.75", got)
	}
	clean := mapOf(t, 2, 1, 0.5, 0.5)
	if got := RulePassRate(clean, 0.2, 0.9); got != 1 {
		t.Fatalf("clean pass rate = %v", got)
	}
}

func TestRuleViolationBoundaries(t *testing.T) {
	// Exactly at the bounds is legal.
	m := mapOf(t, 2, 1, 0.2, 0.9)
	if vs := CheckRules(m, 0.2, 0.9); len(vs) != 0 {
		t.Fatalf("boundary densities flagged: %v", vs)
	}
}

// RulePassRate returns the fraction of windows inside the density band.
func RulePassRate(m *grid.Map, minDensity, maxDensity float64) float64 {
	n := m.G.NumWindows()
	if n == 0 {
		return 1
	}
	v := len(CheckRules(m, minDensity, maxDensity))
	return float64(n-v) / float64(n)
}
