package smtlib

import "testing"

// FuzzParse checks that the s-expression reader never panics and that any
// successfully parsed input re-prints to something that parses again to
// the same rendering (print/parse fixpoint).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"(set-logic UF)",
		"(assert (forall ((x U)) (=> (p x) (q x))))",
		"(declare-fun f (U U) Bool)",
		"; comment\n(check-sat)",
		`(set-info :source "quoted ""string""")`,
		"(a (b (c (d))))",
		"|quoted symbol|",
		"((((",
		"))))",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		exprs, err := Parse(src)
		if err != nil {
			return // malformed input is fine; panics are not
		}
		for _, e := range exprs {
			printed := e.String()
			re, err := ParseOne(printed)
			if err != nil {
				t.Fatalf("re-parse of %q failed: %v", printed, err)
			}
			if re.String() != printed {
				t.Fatalf("print/parse not a fixpoint: %q -> %q", printed, re.String())
			}
		}
	})
}

// FuzzDecodeScript checks the script decoder never panics on arbitrary
// input and accepts no script that declares more than one sort.
func FuzzDecodeScript(f *testing.F) {
	f.Add("(declare-fun p () Bool)(assert p)(check-sat)")
	f.Add("(declare-sort U 0)(declare-const a U)(assert (= a a))")
	f.Add("(assert (forall ((x U)) x))")
	f.Add(twoSortScript)
	f.Add("(declare-sort A 0)(declare-sort B 0)(declare-fun p (A) Bool)(declare-const b B)(assert (p b))(check-sat)")
	f.Add("(declare-sort A 0)(declare-const a A)(declare-sort A 0)(check-sat)")
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := DecodeScript(src); err != nil {
			return
		}
		cmds, _ := Parse(src)
		sorts := 0
		for _, c := range cmds {
			if !c.IsAtom() && len(c.List) > 0 && c.Head() == "declare-sort" {
				sorts++
			}
		}
		if sorts > 1 {
			t.Fatalf("accepted a script declaring %d sorts: %q", sorts, src)
		}
	})
}
