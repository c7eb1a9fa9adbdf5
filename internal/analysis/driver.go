package analysis

// RunModule analyzes every package of the module rooted at root with the
// given analyzers (nil means All()) and returns the findings, globally
// sorted, plus the number of packages analyzed. It is one serial pass:
// LoadModule type-checks the packages in dependency order, and the
// analyzers then visit them in that same order with one shared
// FactStore, so every package sees the facts of everything it imports.
func RunModule(root string, analyzers []*Analyzer) ([]Diagnostic, int, error) {
	if analyzers == nil {
		analyzers = All()
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		return nil, 0, err
	}
	facts := NewFactStore()
	known := knownNames(analyzers)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, runPackage(analyzers, pkg, known, facts)...)
	}
	SortDiagnostics(diags)
	return diags, len(pkgs), nil
}
