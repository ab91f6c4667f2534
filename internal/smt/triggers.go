package smt

// InstStrategy selects how universally quantified clauses are grounded.
type InstStrategy int

// Instantiation strategies.
const (
	// RelevantGrounding, the default, grounds as FullGrounding does but
	// skips every instance with a literal over a non-nullary atom whose
	// opposite polarity occurs nowhere in the live problem: neither in an
	// asserted ground clause nor as an instance of a literal of a live
	// quantified clause. It enumerates each variable only over the terms
	// such occurrences can bind it to. A sat answer stays sound: setting
	// each such atom so that its literal holds satisfies every skipped
	// instance and falsifies no kept clause. The rule needs a problem
	// without function symbols and equality (no congruence to respect);
	// while the live problem has either, this strategy grounds exactly as
	// FullGrounding.
	RelevantGrounding InstStrategy = iota
	// FullGrounding instantiates every clause over the whole term
	// universe (complete for EPR, explodes combinatorially) — what naive
	// encodings of the pipeline's formulas force solvers to do.
	FullGrounding
	// TriggerBased picks a trigger literal per clause and instantiates
	// only with substitutions that match existing ground atoms, the
	// E-matching heuristic real SMT solvers use. Far fewer instances,
	// but refutation-incomplete: Unsat stays sound, Sat degrades to
	// Unknown unless the problem is ground.
	TriggerBased
)

// String names the strategy.
func (s InstStrategy) String() string {
	switch s {
	case TriggerBased:
		return "trigger"
	case FullGrounding:
		return "full"
	}
	return "relevant"
}

// The instantiation machinery itself lives in ground.go, operating on
// arena-interned clauses (see groundCore.instantiate); triggers match
// through fol.Arena.MatchAtom.
