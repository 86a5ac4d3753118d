#!/usr/bin/env bash
# results-quick.sh — regenerate the committed quick-scale transcripts.
#
# Runs `go run ./cmd/experiments -exp all -scale quick` once and splits its
# output at the "Figure 7:", "Figure 5:", "Figure 9:" and "§6.2" headers into
#
#   fig7_quick.txt            Figure 7
#   fig5_fig6_fig8_quick.txt  Figures 5 and 6, the importance summary, Figure 8
#   fig9_quick.txt            Figure 9
#   randomgen_quick.txt       §6.2 random-program generalization
#
# Each section ends before the blank lines that separate it from the next
# one. The leading Table 3 block is dropped: it is static text
# (`-exp table3` prints it).
#
# Usage (from the repository root):
#   scripts/results-quick.sh
#
# The quick scale is deterministic, so a clean tree stays clean:
#   scripts/results-quick.sh && git diff --exit-code results/
set -euo pipefail

dir=results
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go run ./cmd/experiments -exp all -scale quick > "$raw"

awk -v dir="$dir" '
function start(name) {
	if (out != "") close(out)
	out = dir "/" name
	blanks = 0
	sections++
}
/^Figure 7:/           { start("fig7_quick.txt") }
/^Figure 5:/           { start("fig5_fig6_fig8_quick.txt") }
/^Figure 9:/           { start("fig9_quick.txt") }
index($0, "§6.2 ") == 1 { start("randomgen_quick.txt") }
out == ""              { next }
/^$/                   { blanks++; next }
{
	for (; blanks > 0; blanks--) print "" > out
	print > out
}
END {
	if (sections != 4) {
		printf "results-quick.sh: found %d of 4 section headers\n", sections > "/dev/stderr"
		exit 1
	}
}' "$raw"
