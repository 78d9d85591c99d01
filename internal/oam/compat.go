package oam

// Compatibility matrices for multiactive dispatch. The paper's dispatcher
// is single-active: one optimistic handler at a time per node. Multiactive
// objects (Henrio & Rochas) generalize this — requests statically
// annotated as compatible (read/read, disjoint-key groups) may execute
// concurrently on one node. The stub compiler (internal/stubc) compiles
// `compatible A B [when disjoint(key)]` clauses on a .rpc service into a
// CompatTable plus per-method key extractors; the dispatcher consults the
// table at admission time.

// compatMode says how two method classes may overlap.
const (
	// compatNever: the pair must serialize (the default).
	compatNever uint8 = iota
	// compatAlways: the pair may always run concurrently (e.g. read/read).
	compatAlways
	// compatDisjoint: the pair may run concurrently iff both executions
	// carry a key and the keys differ (disjoint-data clause).
	compatDisjoint
)

// CompatTable is a symmetric per-service compatibility matrix over method
// classes. Class indices are assigned by the stub compiler (or by hand);
// an execution with no class (-1) is incompatible with everything,
// preserving single-active semantics for unannotated methods.
type CompatTable struct {
	n     int
	modes []uint8 // n*n, row-major
}

// NewCompatTable returns an all-incompatible matrix over n method classes.
func NewCompatTable(n int) *CompatTable {
	return &CompatTable{n: n, modes: make([]uint8, n*n)}
}

// Allow marks classes a and b unconditionally compatible (both
// directions).
func (t *CompatTable) Allow(a, b int) {
	t.modes[a*t.n+b] = compatAlways
	t.modes[b*t.n+a] = compatAlways
}

// AllowDisjoint marks classes a and b compatible when their keys differ
// (both directions). Executions lacking a key never match.
func (t *CompatTable) AllowDisjoint(a, b int) {
	t.modes[a*t.n+b] = compatDisjoint
	t.modes[b*t.n+a] = compatDisjoint
}

// mode returns the compatibility mode for the (a, b) class pair.
func (t *CompatTable) mode(a, b int) uint8 {
	return t.modes[a*t.n+b]
}

// SetCompat installs the compatibility matrix consulted by multiactive
// admission. Call it before the simulation starts.
func (d *Dispatcher) SetCompat(t *CompatTable) { d.opts.Compat = t }

// compatibleEntries reports whether two admitted executions may overlap
// under table t. A nil table or an unclassified execution serializes.
func compatibleEntries(t *CompatTable, a, b *runEntry) bool {
	if t == nil || a.class < 0 || b.class < 0 {
		return false
	}
	switch t.mode(a.class, b.class) {
	case compatAlways:
		return true
	case compatDisjoint:
		return a.hasKey && b.hasKey && a.key != b.key
	}
	return false
}
