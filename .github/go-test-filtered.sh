#!/usr/bin/env bash
# Usage: .github/go-test-filtered.sh <go test arguments, including -run>
#
# Runs `go test` with the given arguments and fails if any package reports
# "no tests to run". A step that selects tests with -run would otherwise
# keep passing, silently and without running anything, once a test it names
# is renamed or deleted.
set -euo pipefail

out=$(mktemp)
trap 'rm -f "$out"' EXIT

status=0
go test "$@" 2>&1 | tee "$out" || status=$?
if grep -q 'no tests to run' "$out"; then
	echo "go-test-filtered: the -run filter matched no test in a package above" >&2
	exit 1
fi
exit "$status"
