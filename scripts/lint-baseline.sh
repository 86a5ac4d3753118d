#!/usr/bin/env bash
# Regenerates the lint baseline: `autophase lint -json` over the nine
# bundled benchmarks, a deterministic batch of generated programs, and every
# checked-in example IR file. CI regenerates this and diffs it against
# testdata/lint-baseline.txt, so new lint findings (or lost ones) show up as
# a reviewable baseline change instead of a silent drift.
#
# Lint exits 0 (clean) or 1 (findings at error severity); both are expected
# here — the baseline records findings. Anything else (bad flags, unparsable
# program, crash) is a real failure and must kill the script loudly instead
# of silently writing a truncated baseline.
#
# LC_ALL=C pins the collation every text tool in the pipeline uses, so the
# byte order of the baseline — and CI's diff against it — is identical
# across locales.
#
# Usage: scripts/lint-baseline.sh [output-file]
set -u
export LC_ALL=C
cd "$(dirname "$0")/.."
out="${1:-testdata/lint-baseline.txt}"
bin="$(mktemp -d)/autophase"
go build -o "$bin" ./cmd/autophase || exit 1

# run_lint PROG PREFIX appends prefixed lint output to $tmp, tolerating
# exit codes 0 and 1 only.
run_lint() {
  local prog="$1" prefix="$2" rc=0 lines
  lines="$("$bin" lint -program "$prog" -json)" || rc=$?
  if [ "$rc" -ne 0 ] && [ "$rc" -ne 1 ]; then
    echo "lint-baseline: '$bin lint -program $prog -json' exited $rc (expected 0 or 1)" >&2
    exit "$rc"
  fi
  if [ -n "$lines" ]; then
    printf '%s\n' "$lines" | sed "s|^|$prefix |"
  fi
}

{
  for prog in adpcm aes blowfish dhrystone gsm matmul mpeg2 qsort sha \
    rand:101 rand:202 rand:303 rand:404; do
    run_lint "$prog" "$prog"
  done
  for f in examples/*.ir; do
    run_lint "file:$f" "$f"
  done
} >"$out"
echo "wrote $out" >&2
