#!/usr/bin/env bash
# Line-budget ratchet (ROADMAP item 2): prints the non-test Go line count
# outside bench/ and the package count, and fails when the line count
# exceeds the budget below. It also prints the analyzer suppressions in
# the same files (comments that start with //stcps:ignore <analyzer>),
# per analyzer, and fails when their total exceeds its own budget (the
# count half of ROADMAP item 10). Lower a budget when a PR shrinks the
# count; raising one needs a reason in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."
budget=27013
ignore_budget=34
files() { find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0; }
lines=$(files | xargs -0 cat | wc -l)
echo "non-test Go lines (excluding bench/): $lines (budget $budget)"
echo "packages: $(go list ./... | wc -l)"
# A directive is a comment that starts with the prefix; prose that
# mentions it inside another comment is not one.
per=$(files | xargs -0 awk '{ i = index($0, "//") }
  i && substr($0, i, 15) == "//stcps:ignore " { split(substr($0, i + 15), f, " "); print f[1] }' | sort | uniq -c)
ignores=$(awk '{ n += $1 } END { print n + 0 }' <<<"$per")
echo "//stcps:ignore directives: $ignores (budget $ignore_budget)"
[ -n "$per" ] && awk '{ printf "  %-12s %d\n", $2, $1 }' <<<"$per"
status=0
if [ "$lines" -gt "$budget" ]; then
  echo "loc: $lines lines exceed the budget of $budget" >&2
  status=1
fi
if [ "$ignores" -gt "$ignore_budget" ]; then
  echo "loc: $ignores //stcps:ignore directives exceed the budget of $ignore_budget" >&2
  status=1
fi
exit $status
