package smtlib

import (
	"fmt"
	"strconv"

	"github.com/privacy-quagmire/quagmire/internal/fol"
)

// USort is the single uninterpreted sort over which all pipeline formulas
// are typed, matching the paper's encoding of entities and data types as an
// uninterpreted domain.
const USort = "U"

// Problem is the logical content decoded from an SMT-LIB script: the symbol
// declarations and the asserted formulas, ready to hand to a solver.
type Problem struct {
	// Logic is the declared logic, if any.
	Logic string
	// Sorts lists the declared sort names; Decode accepts at most one.
	Sorts []string
	// Consts lists declared constants (arity-0 U-valued functions).
	Consts []string
	// Funcs maps declared U-valued function symbols to arity.
	Funcs map[string]int
	// Preds maps declared Bool-valued function symbols to arity.
	Preds map[string]int
	// Placeholders lists predicate symbols flagged by the compiler as
	// uninterpreted ambiguity placeholders via set-info.
	Placeholders []string
	// Commands lists the solver commands (assert, push, pop and the two
	// checks) in script order, the sequence a solver replays.
	Commands []Command
}

// CommandKind is the kind of a solver command.
type CommandKind int

// Solver command kinds.
const (
	// CmdAssert adds Formula to the current scope.
	CmdAssert CommandKind = iota
	// CmdPush opens Levels scopes.
	CmdPush
	// CmdPop closes Levels scopes.
	CmdPop
	// CmdCheckSat is check-sat, or check-sat-assuming when Assume is set.
	CmdCheckSat
)

// Command is one decoded solver command.
type Command struct {
	Kind CommandKind
	// Formula is the asserted formula of a CmdAssert.
	Formula *fol.Formula
	// Levels is the scope count of a CmdPush or CmdPop.
	Levels int
	// Assume holds the literals of a check-sat-assuming: nullary
	// predicates, possibly negated.
	Assume []*fol.Formula
}

// DecodeScript parses an SMT-LIB script and reconstructs the corresponding
// Problem (see Decode).
func DecodeScript(src string) (*Problem, error) {
	cmds, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Decode(cmds)
}

// Decode reconstructs the Problem of a script's parsed commands: the
// commands Parse reads from its text. Only the command subset a question's
// script uses is understood, plus distinct and boolean =; other commands
// are ignored. As in the
// standard, popping more scopes than are open is an error, and so is
// opening more than MaxScopeDepth. A script may use one declared sort,
// plus Bool as the result sort of a declaration; any other sort is an
// error.
func Decode(cmds []*SExpr) (*Problem, error) {
	p := &Problem{Funcs: map[string]int{}, Preds: map[string]int{}}
	depth := 0 // scopes open after the commands decoded so far
	for _, cmd := range cmds {
		if cmd.IsAtom() || len(cmd.List) == 0 {
			return nil, fmt.Errorf("smtlib: top-level atom %q", cmd.Atom)
		}
		switch cmd.Head() {
		case "set-logic":
			if len(cmd.List) > 1 {
				p.Logic = cmd.List[1].Atom
			}
		case "set-info":
			if len(cmd.List) == 3 && cmd.List[1].Atom == ":uninterpreted-placeholder" {
				p.Placeholders = append(p.Placeholders, cmd.List[2].Atom)
			}
		case "set-option", "exit", "get-model", "get-unsat-core":
			// No logical content for decoding purposes.
		case "push", "pop":
			levels, err := scopeLevels(cmd)
			if err != nil {
				return nil, err
			}
			kind := CmdPush
			if cmd.Head() == "pop" {
				kind = CmdPop
				if levels > depth {
					return nil, fmt.Errorf("smtlib: pop %d with %d scopes open", levels, depth)
				}
				depth -= levels
			} else {
				if levels > MaxScopeDepth-depth {
					return nil, fmt.Errorf("smtlib: push %d would open more than %d scopes", levels, MaxScopeDepth)
				}
				depth += levels
			}
			p.Commands = append(p.Commands, Command{Kind: kind, Levels: levels})
		case "declare-sort":
			if len(cmd.List) < 2 {
				return nil, fmt.Errorf("smtlib: malformed declare-sort")
			}
			if len(p.Sorts) > 0 {
				return nil, fmt.Errorf("smtlib: declare-sort %s: %s is already declared and only one uninterpreted sort is supported", cmd.List[1], p.Sorts[0])
			}
			p.Sorts = append(p.Sorts, cmd.List[1].Atom)
		case "declare-const", "declare-fun":
			// (declare-const c S) is (declare-fun c () S).
			var domain []*SExpr
			switch {
			case cmd.Head() == "declare-const" && len(cmd.List) == 3:
			case cmd.Head() == "declare-fun" && len(cmd.List) == 4 && !cmd.List[2].IsAtom():
				domain = cmd.List[2].List
			default:
				return nil, fmt.Errorf("smtlib: malformed %s", cmd.Head())
			}
			name := cmd.List[1].Atom
			result := cmd.List[len(cmd.List)-1]
			err := p.checkSort(result, true)
			for i := 0; err == nil && i < len(domain); i++ {
				err = p.checkSort(domain[i], false)
			}
			if err != nil {
				return nil, fmt.Errorf("smtlib: %s %s: %v", cmd.Head(), cmd.List[1], err)
			}
			if result.Atom == "Bool" {
				p.Preds[name] = len(domain)
			} else if len(domain) == 0 {
				p.Consts = append(p.Consts, name)
			} else {
				p.Funcs[name] = len(domain)
			}
		case "assert":
			if len(cmd.List) != 2 {
				return nil, fmt.Errorf("smtlib: malformed assert")
			}
			f, err := p.toFormula(cmd.List[1], map[string]bool{})
			if err != nil {
				return nil, err
			}
			p.Commands = append(p.Commands, Command{Kind: CmdAssert, Formula: f})
		case "check-sat":
			p.Commands = append(p.Commands, Command{Kind: CmdCheckSat})
		case "check-sat-assuming":
			assume, err := p.assumptions(cmd)
			if err != nil {
				return nil, err
			}
			p.Commands = append(p.Commands, Command{Kind: CmdCheckSat, Assume: assume})
		default:
			// Unknown commands are skipped to stay permissive with
			// solver-specific extensions.
		}
	}
	return p, nil
}

// MaxScopeDepth bounds the number of assertion scopes a script may have
// open at once. A solver materialises every open scope and walks them all
// on each check, so the numeral of (push n) must not be able to ask for an
// unbounded stack.
const MaxScopeDepth = 1024

// scopeLevels reads the numeral of (push n) or (pop n); a bare (push) or
// (pop) means one level.
func scopeLevels(cmd *SExpr) (int, error) {
	switch len(cmd.List) {
	case 1:
		return 1, nil
	case 2:
		if n, err := strconv.Atoi(cmd.List[1].Atom); cmd.List[1].IsAtom() && err == nil && n >= 0 {
			return n, nil
		}
	}
	return 0, fmt.Errorf("smtlib: malformed %s", cmd.Head())
}

// checkSort accepts the script's one declared sort, and Bool as the result
// sort of a declaration (result set). The solver has one domain, so a
// script with any other sort, theory sorts such as Int included, would be
// answered as if it had one; it is refused instead. Callers prefix the
// error with the declaration or binder.
func (p *Problem) checkSort(s *SExpr, result bool) error {
	switch {
	case s.IsAtom() && s.Atom == "Bool":
		if result {
			return nil
		}
		return fmt.Errorf("sort Bool is supported only as a result sort")
	case s.IsAtom() && len(p.Sorts) > 0 && s.Atom == p.Sorts[0]:
		return nil
	}
	return fmt.Errorf("sort %s is not declared", s)
}

// assumptions decodes the literal list of (check-sat-assuming (l...)):
// each literal is a declared nullary Bool symbol or its negation.
func (p *Problem) assumptions(cmd *SExpr) ([]*fol.Formula, error) {
	if len(cmd.List) != 2 || cmd.List[1].IsAtom() {
		return nil, fmt.Errorf("smtlib: malformed check-sat-assuming")
	}
	var out []*fol.Formula
	for _, lit := range cmd.List[1].List {
		atom, neg := lit, false
		if !lit.IsAtom() && len(lit.List) == 2 && lit.Head() == "not" {
			atom, neg = lit.List[1], true
		}
		if arity, ok := p.Preds[atom.Atom]; !atom.IsAtom() || !ok || arity != 0 {
			return nil, fmt.Errorf("smtlib: check-sat-assuming literal %s is not a declared Bool symbol or its negation", lit)
		}
		f := p.pred(atom.Atom)
		if neg {
			f = fol.Not(f)
		}
		out = append(out, f)
	}
	return out, nil
}

// toFormula converts an asserted s-expression to FOL. vars tracks bound
// variable names in scope.
func (p *Problem) toFormula(e *SExpr, vars map[string]bool) (*fol.Formula, error) {
	if e.IsAtom() {
		switch e.Atom {
		case "true":
			return fol.True(), nil
		case "false":
			return fol.False(), nil
		}
		if _, ok := p.Preds[e.Atom]; ok {
			return p.pred(e.Atom), nil
		}
		return nil, fmt.Errorf("smtlib: undeclared boolean atom %q", e.Atom)
	}
	if len(e.List) == 0 {
		return nil, fmt.Errorf("smtlib: empty application")
	}
	head := e.Head()
	args := e.List[1:]
	switch head {
	case "not":
		if len(args) != 1 {
			return nil, fmt.Errorf("smtlib: not takes one argument")
		}
		f, err := p.toFormula(args[0], vars)
		if err != nil {
			return nil, err
		}
		return fol.Not(f), nil
	case "and", "or":
		subs := make([]*fol.Formula, len(args))
		for i, a := range args {
			f, err := p.toFormula(a, vars)
			if err != nil {
				return nil, err
			}
			subs[i] = f
		}
		if head == "and" {
			return fol.And(subs...), nil
		}
		return fol.Or(subs...), nil
	case "=>":
		if len(args) != 2 {
			return nil, fmt.Errorf("smtlib: => takes two arguments")
		}
		a, err := p.toFormula(args[0], vars)
		if err != nil {
			return nil, err
		}
		b, err := p.toFormula(args[1], vars)
		if err != nil {
			return nil, err
		}
		return fol.Implies(a, b), nil
	case "=":
		if len(args) != 2 {
			return nil, fmt.Errorf("smtlib: = takes two arguments")
		}
		// Boolean equality is iff; term equality is Eq. Decide by trying
		// terms first.
		ta, errA := p.toTerm(args[0], vars)
		tb, errB := p.toTerm(args[1], vars)
		if errA == nil && errB == nil {
			return fol.Eq(ta, tb), nil
		}
		fa, err := p.toFormula(args[0], vars)
		if err != nil {
			return nil, err
		}
		fb, err := p.toFormula(args[1], vars)
		if err != nil {
			return nil, err
		}
		return fol.Iff(fa, fb), nil
	case "distinct":
		if len(args) < 2 {
			return nil, fmt.Errorf("smtlib: distinct needs at least two arguments")
		}
		terms := make([]fol.Term, len(args))
		for i, a := range args {
			t, err := p.toTerm(a, vars)
			if err != nil {
				return nil, err
			}
			terms[i] = t
		}
		// Pairwise disequalities.
		var conj []*fol.Formula
		for i := 0; i < len(terms); i++ {
			for j := i + 1; j < len(terms); j++ {
				conj = append(conj, fol.Not(fol.Eq(terms[i], terms[j])))
			}
		}
		return fol.And(conj...), nil
	case "forall", "exists":
		if len(args) != 2 || args[0].IsAtom() {
			return nil, fmt.Errorf("smtlib: malformed quantifier")
		}
		// Multiple binders become nested quantifiers.
		binders := args[0].List
		names := make([]string, len(binders))
		for i, b := range binders {
			if b.IsAtom() || len(b.List) != 2 {
				return nil, fmt.Errorf("smtlib: malformed binder")
			}
			if err := p.checkSort(b.List[1], false); err != nil {
				return nil, fmt.Errorf("smtlib: %s binder %s: %v", head, b.List[0], err)
			}
			names[i] = b.List[0].Atom
			vars[names[i]] = true
		}
		body, err := p.toFormula(args[1], vars)
		for _, n := range names {
			delete(vars, n)
		}
		if err != nil {
			return nil, err
		}
		for i := len(names) - 1; i >= 0; i-- {
			if head == "forall" {
				body = fol.Forall(names[i], body)
			} else {
				body = fol.Exists(names[i], body)
			}
		}
		return body, nil
	default:
		if arity, ok := p.Preds[head]; ok {
			if len(args) != arity {
				return nil, fmt.Errorf("smtlib: predicate %q expects %d args, got %d", head, arity, len(args))
			}
			terms := make([]fol.Term, len(args))
			for i, a := range args {
				t, err := p.toTerm(a, vars)
				if err != nil {
					return nil, err
				}
				terms[i] = t
			}
			f := fol.Pred(head, terms...)
			f.Uninterpreted = p.isPlaceholder(head)
			return f, nil
		}
		return nil, fmt.Errorf("smtlib: unknown formula head %q", head)
	}
}

func (p *Problem) pred(name string) *fol.Formula {
	f := fol.Pred(name)
	f.Uninterpreted = p.isPlaceholder(name)
	return f
}

func (p *Problem) isPlaceholder(name string) bool {
	for _, ph := range p.Placeholders {
		if ph == name {
			return true
		}
	}
	return false
}

func (p *Problem) toTerm(e *SExpr, vars map[string]bool) (fol.Term, error) {
	if e.IsAtom() {
		if vars[e.Atom] {
			return fol.Var(e.Atom), nil
		}
		for _, c := range p.Consts {
			if c == e.Atom {
				return fol.Const(e.Atom), nil
			}
		}
		if _, ok := p.Preds[e.Atom]; ok {
			return fol.Term{}, fmt.Errorf("smtlib: %q is a predicate, not a term", e.Atom)
		}
		return fol.Term{}, fmt.Errorf("smtlib: undeclared constant %q", e.Atom)
	}
	head := e.Head()
	arity, ok := p.Funcs[head]
	if !ok {
		return fol.Term{}, fmt.Errorf("smtlib: unknown function %q", head)
	}
	if len(e.List)-1 != arity {
		return fol.Term{}, fmt.Errorf("smtlib: function %q expects %d args, got %d", head, arity, len(e.List)-1)
	}
	args := make([]fol.Term, arity)
	for i, a := range e.List[1:] {
		t, err := p.toTerm(a, vars)
		if err != nil {
			return fol.Term{}, err
		}
		args[i] = t
	}
	return fol.App(head, args...), nil
}
