package ir

import (
	"strings"
	"testing"
)

func TestParseRoundTripDiamond(t *testing.T) {
	m, _ := diamond()
	s1 := m.String()
	m2, err := Parse(s1)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := m2.Verify(); err != nil {
		t.Fatalf("parsed module fails verify: %v", err)
	}
	s2 := m2.String()
	if s1 != s2 {
		t.Fatalf("round trip not stable:\n--- printed\n%s\n--- reparsed\n%s", s1, s2)
	}
}

func TestParseRoundTripLoop(t *testing.T) {
	m, _ := buildLoop()
	s1 := m.String()
	m2, err := Parse(s1)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if s2 := m2.String(); s1 != s2 {
		t.Fatalf("round trip not stable:\n%s\nvs\n%s", s1, s2)
	}
}

func TestParseGlobalsAndCalls(t *testing.T) {
	src := `; module gtest
@tab = constant [4 x i32] [10 20 30 40]
@cell = global i32 [7]
define i32 @helper(i32 %x) readnone notrap {
entry:
  %0 = mul i32 %x, %x
  ret i32 %0
}

define i32 @main() {
entry:
  %p = getelementptr i32* @tab, 2
  %v = load i32, i32* %p
  %h = call i32 @helper(%v)
  print(%h)
  ret i32 %h
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	g := m.Global("tab")
	if g == nil || !g.ReadOnly || g.NumElems() != 4 || g.Init[2] != 30 {
		t.Fatalf("global tab wrong: %+v", g)
	}
	h := m.Func("helper")
	if h == nil || !h.Attrs.ReadNone || !h.Attrs.NoTrap {
		t.Fatal("helper attrs lost")
	}
	// Reparse of the print must be stable too.
	s := m.String()
	m2, err := Parse(s)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if m2.String() != s {
		t.Fatal("second round trip unstable")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := []string{
		"define i32 @f() {\nentry:\n  %x = frobnicate i32 1, 2\n}",
		"define i32 @f() {\nentry:\n  br label %nosuch\n}",
		"define i32 @f() {\nentry:\n  %x = add i32 %missing, 1\n  ret i32 %x\n}",
		"@g = wobble i32 [1]",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Fatalf("accepted garbage:\n%s", src)
		}
	}
}

func TestParsePhiAndSwitch(t *testing.T) {
	src := `define i32 @main() {
entry:
  switch i32 2, label %def [1: label %a, 2: label %b]

a:
  br label %join

b:
  br label %join

def:
  br label %join

join:
  %x = phi i32 [ 10, %a ], [ 20, %b ], [ 30, %def ]
  ret i32 %x
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !strings.Contains(m.String(), "switch i32 2") {
		t.Fatal("switch lost")
	}
	s := m.String()
	m2, err := Parse(s)
	if err != nil || m2.String() != s {
		t.Fatalf("round trip unstable: %v", err)
	}
}

// TestParseMalformedIsError checks that lines the parser cannot split as it
// expects come back as errors rather than panics.
func TestParseMalformedIsError(t *testing.T) {
	for _, src := range []string{
		"define i0@()00000000\n0000:\n%0 = phi",
		"define i32 @main() {\nentry:\n  switch i32 0\n}\n",
	} {
		if m, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted malformed input: %v", src, m)
		}
	}
}
