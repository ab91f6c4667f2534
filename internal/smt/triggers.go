package smt

// InstStrategy selects how universally quantified clauses are grounded.
type InstStrategy int

// Instantiation strategies.
const (
	// FullGrounding instantiates every clause over the whole term
	// universe (complete for EPR, explodes combinatorially) — what naive
	// encodings of the pipeline's formulas force solvers to do.
	FullGrounding InstStrategy = iota
	// TriggerBased picks a trigger literal per clause and instantiates
	// only with substitutions that match existing ground atoms, the
	// E-matching heuristic real SMT solvers use. Far fewer instances,
	// but refutation-incomplete: Unsat stays sound, Sat degrades to
	// Unknown unless the problem is ground.
	TriggerBased
)

// String names the strategy.
func (s InstStrategy) String() string {
	if s == TriggerBased {
		return "trigger"
	}
	return "full"
}

// The instantiation machinery itself lives in ground.go, operating on
// arena-interned clauses (see groundCore.instantiate); triggers match
// through fol.Arena.MatchAtom.
