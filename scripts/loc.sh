#!/usr/bin/env bash
# Line counts by the one definition CHANGES.md entries use. Per file:
#
#   total     every line
#   non-test  lines before the first `#[cfg(test)]` (all, if none)
#   code      non-test lines that are neither blank nor `//` comments
#             (`//`, `///` and `//!` alike)
#
# and a sum row when more than one path is given.
#
#   scripts/loc.sh crates/ooc-runtime/src/{pool,striped,repair}.rs
#   scripts/loc.sh                      # every .rs file under crates/*/src
set -eu

# Paths are the caller's, relative to the caller's directory; only the
# default set is taken from the checkout this script lives in.
if [ "$#" -eq 0 ]; then
  cd "$(dirname "$0")/.."
  # shellcheck disable=SC2046  # paths in this repo hold no spaces
  set -- $(find crates/*/src -name '*.rs' | sort)
fi

awk '
  FNR == 1 { if (file != "") row(file); file = FILENAME; total = nontest = code = 0; in_test = 0 }
  { total++ }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
  !in_test { nontest++; if ($0 !~ /^[[:space:]]*$/ && $0 !~ /^[[:space:]]*\/\//) code++ }
  function row(name) {
    printf "%7d %9d %7d  %s\n", total, nontest, code, name
    sum_total += total; sum_nontest += nontest; sum_code += code; files++
  }
  BEGIN { printf "%7s %9s %7s  %s\n", "total", "non-test", "code", "file" }
  END {
    if (file != "") row(file)
    if (files > 1) printf "%7d %9d %7d  %s\n", sum_total, sum_nontest, sum_code, "sum"
  }
' "$@"
