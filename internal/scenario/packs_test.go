package scenario

import (
	"strings"
	"testing"
)

func TestBuiltinPacksParse(t *testing.T) {
	if len(builtinPacks) < 3 {
		t.Fatalf("expected >= 3 built-in packs, got %d", len(builtinPacks))
	}
	for name, p := range builtinPacks {
		if p.Name != name {
			t.Errorf("pack %q is registered as %q", p.Name, name)
		}
		scs, err := p.scenarios()
		if err != nil {
			t.Errorf("pack %q: %v", p.Name, err)
			continue
		}
		if len(scs) == 0 {
			t.Errorf("pack %q has no scenarios", p.Name)
		}
		for _, sc := range scs {
			if sc.Ask == "" || !sc.HasExpect {
				t.Errorf("pack %q scenario %q missing ask or expect", p.Name, sc.Name)
			}
		}
		if p.Doc == "" {
			t.Errorf("pack %q has no doc line", p.Name)
		}
	}
}

func TestExpandUse(t *testing.T) {
	scs, env, err := expandUse(Use{Pack: "ccpa-no-sale", Params: map[string]string{"controller": "Acme"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 2 {
		t.Fatalf("scenarios = %d, want 2", len(scs))
	}
	if env["controller"] != "Acme" {
		t.Errorf("env = %v", env)
	}
}

func TestExpandUseErrors(t *testing.T) {
	cases := []struct {
		use  Use
		want string
	}{
		{Use{Pack: "no-such-pack"}, "unknown rule pack"},
		{Use{Pack: "ccpa-no-sale"}, `requires parameter "controller"`},
		{Use{Pack: "ccpa-no-sale", Params: map[string]string{"controller": "Acme", "extra": "x"}}, `no parameter "extra"`},
		{Use{Pack: "collection-disclosure", Params: map[string]string{"controller": "Acme"}}, `requires parameter "data"`},
	}
	for _, c := range cases {
		_, _, err := expandUse(c.use)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("expandUse(%+v) error = %v, want substring %q", c.use, err, c.want)
		}
	}
	// The unknown-pack error should suggest the available names.
	_, _, err := expandUse(Use{Pack: "nope"})
	if err == nil || !strings.Contains(err.Error(), "ccpa-no-sale") {
		t.Errorf("unknown-pack error should list available packs, got %v", err)
	}
}
