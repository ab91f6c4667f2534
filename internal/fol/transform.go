package fol

import "fmt"

// NNF rewrites f into negation normal form: negations pushed to atoms,
// implications and bi-implications eliminated.
func NNF(f *Formula) *Formula {
	return nnf(f, false)
}

func nnf(f *Formula, neg bool) *Formula {
	switch f.Op {
	case OpTrue:
		if neg {
			return False()
		}
		return f
	case OpFalse:
		if neg {
			return True()
		}
		return f
	case OpPred, OpEq:
		if neg {
			return Not(f)
		}
		return f
	case OpNot:
		return nnf(f.Sub[0], !neg)
	case OpAnd, OpOr:
		sub := make([]*Formula, len(f.Sub))
		for i, s := range f.Sub {
			sub[i] = nnf(s, neg)
		}
		op := f.Op
		if neg {
			if op == OpAnd {
				op = OpOr
			} else {
				op = OpAnd
			}
		}
		return &Formula{Op: op, Sub: sub}
	case OpImplies:
		// p -> q  ==  ¬p ∨ q
		if neg {
			return And(nnf(f.Sub[0], false), nnf(f.Sub[1], true))
		}
		return Or(nnf(f.Sub[0], true), nnf(f.Sub[1], false))
	case OpIff:
		// p <-> q == (p ∧ q) ∨ (¬p ∧ ¬q)
		p, q := f.Sub[0], f.Sub[1]
		if neg {
			return Or(And(nnf(p, false), nnf(q, true)), And(nnf(p, true), nnf(q, false)))
		}
		return Or(And(nnf(p, false), nnf(q, false)), And(nnf(p, true), nnf(q, true)))
	case OpForall:
		op := OpForall
		if neg {
			op = OpExists
		}
		return &Formula{Op: op, Bound: f.Bound, Sub: []*Formula{nnf(f.Sub[0], neg)}}
	case OpExists:
		op := OpExists
		if neg {
			op = OpForall
		}
		return &Formula{Op: op, Bound: f.Bound, Sub: []*Formula{nnf(f.Sub[0], neg)}}
	default:
		panic(fmt.Sprintf("fol: nnf of bad op %d", f.Op))
	}
}

// Prenex converts an NNF formula to prenex form, pulling quantifiers to the
// front. Binders are renamed apart first so extraction is sound.
func Prenex(f *Formula) *Formula {
	f = renameApart(f, map[string]int{})
	prefix, matrix := pullQuantifiers(f)
	out := matrix
	for i := len(prefix) - 1; i >= 0; i-- {
		out = &Formula{Op: prefix[i].op, Bound: prefix[i].v, Sub: []*Formula{out}}
	}
	return out
}

type quant struct {
	op Op
	v  string
}

// renameApart gives every binder a globally unique name.
func renameApart(f *Formula, counts map[string]int) *Formula {
	switch f.Op {
	case OpForall, OpExists:
		counts[f.Bound]++
		name := f.Bound
		if counts[f.Bound] > 1 {
			name = fmt.Sprintf("%s#%d", f.Bound, counts[f.Bound])
		}
		body := f.Sub[0]
		if name != f.Bound {
			body = Subst(body, f.Bound, Var(name))
		}
		return &Formula{Op: f.Op, Bound: name, Sub: []*Formula{renameApart(body, counts)}}
	case OpPred, OpEq, OpTrue, OpFalse:
		return f
	default:
		sub := make([]*Formula, len(f.Sub))
		for i, s := range f.Sub {
			sub[i] = renameApart(s, counts)
		}
		return &Formula{Op: f.Op, Pred: f.Pred, Uninterpreted: f.Uninterpreted, Terms: f.Terms, Sub: sub}
	}
}

func pullQuantifiers(f *Formula) ([]quant, *Formula) {
	switch f.Op {
	case OpForall, OpExists:
		inner, matrix := pullQuantifiers(f.Sub[0])
		return append([]quant{{f.Op, f.Bound}}, inner...), matrix
	case OpAnd, OpOr:
		var prefix []quant
		sub := make([]*Formula, len(f.Sub))
		for i, s := range f.Sub {
			p, m := pullQuantifiers(s)
			prefix = append(prefix, p...)
			sub[i] = m
		}
		return prefix, &Formula{Op: f.Op, Sub: sub}
	case OpNot:
		// NNF input: negation only wraps atoms, which hold no quantifiers.
		return nil, f
	default:
		return nil, f
	}
}

// SkolemizeTagged removes existential quantifiers from a prenex NNF
// formula by introducing Skolem constants/functions named sk<tag>_N. The
// result has only universal quantifiers. Distinct tags keep the Skolem
// constants of independently clausified formulas apart when their clauses
// later share one arena or solver — without a tag, two clausifications
// both emit sk_1 and the shared problem would wrongly conflate their
// witnesses.
func SkolemizeTagged(f *Formula, tag string) *Formula {
	counter := 0
	var universals []string
	var walk func(g *Formula) *Formula
	walk = func(g *Formula) *Formula {
		switch g.Op {
		case OpForall:
			universals = append(universals, g.Bound)
			body := walk(g.Sub[0])
			universals = universals[:len(universals)-1]
			return &Formula{Op: OpForall, Bound: g.Bound, Sub: []*Formula{body}}
		case OpExists:
			counter++
			name := fmt.Sprintf("sk%s_%d", tag, counter)
			var replacement Term
			if len(universals) == 0 {
				replacement = Const(name)
			} else {
				args := make([]Term, len(universals))
				for i, u := range universals {
					args[i] = Var(u)
				}
				replacement = App(name, args...)
			}
			return walk(Subst(g.Sub[0], g.Bound, replacement))
		default:
			return g
		}
	}
	return walk(f)
}

// Clause is a disjunction of literals.
type Clause []Literal

// Literal is a possibly negated atom.
type Literal struct {
	// Neg marks a negated literal.
	Neg bool
	// Atom is the underlying predicate or equality formula (OpPred/OpEq).
	Atom *Formula
}

// String renders the literal.
func (l Literal) String() string {
	if l.Neg {
		return "¬" + l.Atom.String()
	}
	return l.Atom.String()
}

// CNF converts the quantifier-free matrix of a Skolemized prenex formula to
// clause form via distribution. It errors if a quantifier remains once the
// leading universal prefix is stripped (universal variables are treated as
// implicitly quantified, as in resolution calculi).
func CNF(f *Formula) ([]Clause, error) {
	// Strip leading universals.
	for f.Op == OpForall {
		f = f.Sub[0]
	}
	return cnfMatrix(f)
}

func cnfMatrix(f *Formula) ([]Clause, error) {
	switch f.Op {
	case OpTrue:
		return nil, nil
	case OpFalse:
		return []Clause{{}}, nil
	case OpPred, OpEq:
		return []Clause{{Literal{Atom: f}}}, nil
	case OpNot:
		a := f.Sub[0]
		if a.Op != OpPred && a.Op != OpEq {
			return nil, fmt.Errorf("fol: CNF input not in NNF: ¬%s", a.Op)
		}
		return []Clause{{Literal{Neg: true, Atom: a}}}, nil
	case OpAnd:
		var out []Clause
		for _, s := range f.Sub {
			cs, err := cnfMatrix(s)
			if err != nil {
				return nil, err
			}
			out = append(out, cs...)
		}
		return out, nil
	case OpOr:
		// Distribute pairwise.
		acc := []Clause{{}}
		for _, s := range f.Sub {
			cs, err := cnfMatrix(s)
			if err != nil {
				return nil, err
			}
			var next []Clause
			for _, a := range acc {
				for _, c := range cs {
					merged := make(Clause, 0, len(a)+len(c))
					merged = append(merged, a...)
					merged = append(merged, c...)
					next = append(next, merged)
				}
			}
			acc = next
		}
		return acc, nil
	case OpForall, OpExists:
		return nil, fmt.Errorf("fol: CNF input contains inner quantifier %s%s", f.Op, f.Bound)
	default:
		return nil, fmt.Errorf("fol: CNF input contains %s; run NNF first", f.Op)
	}
}

// ClausesOfTagged runs the full pipeline NNF -> Prenex -> Skolemize -> CNF,
// with a Skolem tag (see SkolemizeTagged).
func ClausesOfTagged(f *Formula, tag string) ([]Clause, error) {
	return CNF(SkolemizeTagged(Prenex(NNF(f)), tag))
}

// Simplify performs structural simplification: constant folding, flattening
// of nested ∧/∨, deduplication of identical juxtaposed operands, double
// negation elimination, and p ∧ ¬p / p ∨ ¬p folding at the same level. The
// result is logically equivalent to the input.
func Simplify(f *Formula) *Formula {
	switch f.Op {
	case OpTrue, OpFalse, OpPred, OpEq:
		return f
	case OpNot:
		s := Simplify(f.Sub[0])
		switch s.Op {
		case OpTrue:
			return False()
		case OpFalse:
			return True()
		case OpNot:
			return s.Sub[0]
		}
		return Not(s)
	case OpAnd, OpOr:
		identity, absorber := OpTrue, OpFalse
		if f.Op == OpOr {
			identity, absorber = OpFalse, OpTrue
		}
		var flat []*Formula
		// Operands are equal when they print the same. Each is printed
		// once into one buffer, and only a new key is copied out.
		seen := map[string]bool{}
		negSeen := map[string]bool{}
		var buf [256]byte
		key := buf[:0]
		contradiction := false
		var add func(s *Formula)
		add = func(s *Formula) {
			if s.Op == f.Op {
				for _, x := range s.Sub {
					add(x)
				}
				return
			}
			if s.Op == identity {
				return
			}
			if s.Op == absorber {
				contradiction = true
				return
			}
			key = s.appendTo(key[:0])
			if seen[string(key)] {
				return
			}
			// Complementary pair detection. A negation prints as "¬"
			// followed by its operand.
			if s.Op == OpNot {
				operand := key[len("¬"):]
				if seen[string(operand)] {
					contradiction = true
					return
				}
				negSeen[string(operand)] = true
			} else if negSeen[string(key)] {
				contradiction = true
				return
			}
			seen[string(key)] = true
			flat = append(flat, s)
		}
		for _, s := range f.Sub {
			add(Simplify(s))
		}
		if contradiction {
			if f.Op == OpAnd {
				return False()
			}
			return True()
		}
		switch len(flat) {
		case 0:
			if f.Op == OpAnd {
				return True()
			}
			return False()
		case 1:
			return flat[0]
		}
		return &Formula{Op: f.Op, Sub: flat}
	case OpImplies:
		p, q := Simplify(f.Sub[0]), Simplify(f.Sub[1])
		switch {
		case p.Op == OpFalse || q.Op == OpTrue:
			return True()
		case p.Op == OpTrue:
			return q
		case q.Op == OpFalse:
			return Simplify(Not(p))
		}
		return Implies(p, q)
	case OpIff:
		p, q := Simplify(f.Sub[0]), Simplify(f.Sub[1])
		switch {
		case p.Op == OpTrue:
			return q
		case q.Op == OpTrue:
			return p
		case p.Op == OpFalse:
			return Simplify(Not(q))
		case q.Op == OpFalse:
			return Simplify(Not(p))
		case p.Equal(q):
			return True()
		}
		return Iff(p, q)
	case OpForall, OpExists:
		body := Simplify(f.Sub[0])
		if body.Op == OpTrue || body.Op == OpFalse {
			return body // vacuous quantification over nonempty domain
		}
		// Drop quantifier when the variable does not occur.
		if !formulaMentions(body, f.Bound) {
			return body
		}
		return &Formula{Op: f.Op, Bound: f.Bound, Sub: []*Formula{body}}
	default:
		return f
	}
}
