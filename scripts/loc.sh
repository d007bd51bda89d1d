#!/usr/bin/env bash
# Line-budget ratchet (ROADMAP item 2): prints the non-test Go line count
# outside bench/ and the package count, and fails when the line count
# exceeds the budget below. Lower the budget when a PR shrinks the code;
# raising it needs a reason in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."
budget=26865
lines=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 cat | wc -l)
echo "non-test Go lines (excluding bench/): $lines (budget $budget)"
echo "packages: $(go list ./... | wc -l)"
if [ "$lines" -gt "$budget" ]; then
  echo "loc: $lines lines exceed the budget of $budget" >&2
  exit 1
fi
