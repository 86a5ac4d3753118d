package ir_test

import (
	"testing"

	"autophase/internal/ir"
	"autophase/internal/progen"
)

// FuzzParseIR feeds arbitrary text to the parser, a trust boundary (serve
// accepts textual IR). Each input must either fail to parse or parse; a
// parsed module that verifies must print, reparse and print again to the
// same text.
func FuzzParseIR(f *testing.F) {
	for _, m := range progen.Benchmarks() {
		f.Add(m.String())
	}
	f.Add(`; module seed
@tab = constant [4 x i32] [10 20 30 40]
define i32 @main(i32 %x) {
entry:
  %c = icmp slt i32 %x, 10
  br i1 %c, label %a, label %b
a:
  %p = getelementptr i32* @tab, 2
  %v = load i32, i32* %p
  br label %join
b:
  switch i32 %x, label %join [1, label %a]
join:
  %r = phi i32 [%v, %a], [0, %b]
  %s = select i1 %c, i32 %r, i32 %x
  print(%s)
  ret i32 %s
}
`)
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil || m.Verify() != nil {
			return
		}
		printed := m.String()
		m2, err := ir.Parse(printed)
		if err != nil {
			t.Fatalf("printed module does not parse: %v\n%s", err, printed)
		}
		if again := m2.String(); again != printed {
			t.Fatalf("print-parse round trip changed the module:\n--- printed\n%s\n--- reparsed\n%s", printed, again)
		}
	})
}
