package main

import (
	"testing"

	"repro/consensus"
)

func TestParseRuleAll(t *testing.T) {
	for _, name := range []string{"median", "majority", "minimum", "maximum", "mean", "voter", "kmedian2"} {
		r, err := parseRule(name)
		if err != nil {
			t.Fatalf("parseRule(%q): %v", name, err)
		}
		if name != "kmedian2" && r.Name() != name {
			t.Fatalf("parseRule(%q) returned rule %q", name, r.Name())
		}
	}
	if _, err := parseRule("nonsense"); err == nil {
		t.Fatal("unknown rule must error")
	}
}

func TestParseBudget(t *testing.T) {
	for s, n1000 := range map[string]int{"sqrt": 31, "sqrtlog": 83, "7": 7, "0": 0} {
		b, err := parseBudget(s)
		if err != nil {
			t.Fatalf("parseBudget(%q): %v", s, err)
		}
		if got := b(1000); got != n1000 {
			t.Fatalf("budget %q at n=1000: %d, want %d", s, got, n1000)
		}
	}
	for _, bad := range []string{"-3", "x", ""} {
		if _, err := parseBudget(bad); err == nil {
			t.Fatalf("parseBudget(%q) must error", bad)
		}
	}
}

func TestParseAdversary(t *testing.T) {
	if a, err := parseAdversary("none", "sqrt"); err != nil || a != nil {
		t.Fatal("none must parse to nil adversary")
	}
	for _, name := range []string{"balancer", "reviver", "hider", "flipper", "noise", "splitter"} {
		a, err := parseAdversary(name, "sqrt")
		if err != nil || a == nil {
			t.Fatalf("parseAdversary(%q): %v", name, err)
		}
	}
	if _, err := parseAdversary("balancer", "bad"); err == nil {
		t.Fatal("bad budget must propagate")
	}
	if _, err := parseAdversary("nonsense", "sqrt"); err == nil {
		t.Fatal("unknown adversary must error")
	}
}

func TestParseInit(t *testing.T) {
	for kind, check := range map[string]func([]consensus.Value) bool{
		"distinct": func(v []consensus.Value) bool { return len(v) == 10 && v[9] == 10 },
		"uniform":  func(v []consensus.Value) bool { return len(v) == 10 },
		"twovalue": func(v []consensus.Value) bool { return len(v) == 10 && v[0] == 1 && v[9] == 2 },
		"blocks":   func(v []consensus.Value) bool { return len(v) == 10 },
	} {
		vals, err := parseInit(kind, 10, 4, 1)
		if err != nil {
			t.Fatalf("parseInit(%q): %v", kind, err)
		}
		if !check(vals) {
			t.Fatalf("parseInit(%q) shape wrong: %v", kind, vals)
		}
	}
	if _, err := parseInit("nonsense", 10, 4, 1); err == nil {
		t.Fatal("unknown init must error")
	}
	// m <= 0 defaults to n.
	vals, err := parseInit("blocks", 6, 0, 1)
	if err != nil || len(vals) != 6 {
		t.Fatalf("m=0 default: %v %v", vals, err)
	}
}
