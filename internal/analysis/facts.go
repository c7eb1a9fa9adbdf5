package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
)

// Fact is a typed datum an analyzer attaches to a package-level object
// (function, method, package variable, struct field) or to a whole
// package, and that downstream packages import during the topo-ordered
// run — the whole-module reasoning channel. A fact must round-trip
// through encoding/json: the store keeps each fact encoded, so an
// importer decodes its own copy and can never alias, or mutate, the
// exporter's value.
type Fact interface {
	// FactName returns a stable type tag, unique across analyzers (by
	// convention "<analyzer>.<Kind>"), used to key serialized facts.
	FactName() string
}

// factKey identifies one fact instance.
type factKey struct {
	pkg string // owning package import path
	obj string // object key within the package; "" for a package fact
	typ string // Fact type tag
}

// FactStore holds every fact exported during one module run, keyed by
// (package, object, fact type). Packages are analyzed one at a time in
// dependency order, so a package's facts are complete before any
// dependent imports them.
type FactStore struct {
	data map[factKey]json.RawMessage
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{data: map[factKey]json.RawMessage{}}
}

func (s *FactStore) export(k factKey, f Fact) error {
	data, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("analysis: encoding fact %s for %s.%s: %w", k.typ, k.pkg, k.obj, err)
	}
	s.data[k] = data
	return nil
}

func (s *FactStore) imp(k factKey, f Fact) bool {
	data, ok := s.data[k]
	if !ok {
		return false
	}
	return json.Unmarshal(data, f) == nil
}

// ObjectKey returns a stable, package-relative key for a package-level
// object: "Name" for package-level functions, variables and types,
// "Recv.Name" for methods (pointer receivers stripped). Struct-field
// keys are formed by analyzers as "Type.Field" (see FieldKey). The
// second result is false for objects facts cannot attach to (locals,
// blank, nil).
func ObjectKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil || obj.Name() == "_" {
		return "", false
	}
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "", false
			}
			return named.Obj().Name() + "." + f.Name(), true
		}
	}
	// Only package-scope objects have stable keys.
	if obj.Parent() != nil && obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return obj.Name(), true
}

// FieldKey forms the object key of a struct field.
func FieldKey(typeName, field string) string { return typeName + "." + field }

// ExportObjectFact records a fact about obj, which must belong to the
// package under analysis.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	key, ok := ObjectKey(obj)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != p.Pkg.Path() {
		return
	}
	p.ExportKeyFact(key, f)
}

// ExportKeyFact records a fact under an explicit object key of the
// package under analysis (used for struct fields, where the owning type
// is known to the annotation scanner but not to go/types' object).
func (p *Pass) ExportKeyFact(objKey string, f Fact) {
	if p.facts == nil {
		return
	}
	//filllint:allow errsink -- export fails only when the fact type cannot marshal, a static programming error; a lost fact degrades to a missed cross-package licence, never a wrong finding
	_ = p.facts.export(factKey{pkg: p.Pkg.Path(), obj: objKey, typ: f.FactName()}, f)
}

// ImportObjectFact loads a fact about obj (from any package analyzed
// earlier in the dependency order, including the current one) into f,
// reporting whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	key, ok := ObjectKey(obj)
	if !ok || obj.Pkg() == nil {
		return false
	}
	return p.ImportKeyFact(obj.Pkg().Path(), key, f)
}

// ImportKeyFact loads a fact recorded under (pkgPath, objKey) into f.
func (p *Pass) ImportKeyFact(pkgPath, objKey string, f Fact) bool {
	if p.facts == nil {
		return false
	}
	return p.facts.imp(factKey{pkg: pkgPath, obj: objKey, typ: f.FactName()}, f)
}

// ExportPackageFact records a fact about the package under analysis.
func (p *Pass) ExportPackageFact(f Fact) { p.ExportKeyFact("", f) }

// ImportPackageFact loads a package-level fact of pkgPath into f.
func (p *Pass) ImportPackageFact(pkgPath string, f Fact) bool {
	return p.ImportKeyFact(pkgPath, "", f)
}
