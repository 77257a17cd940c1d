#!/usr/bin/env bash
# Line counts by the one definition CHANGES.md entries use. Per file:
#
#   total     every line
#   non-test  lines before the first `#[cfg(test)]` (all, if none)
#   code      non-test lines that are neither blank nor `//` comments
#             (`//`, `///` and `//!` alike)
#
# and a sum row when more than one path is given. A file declared as
# `#[cfg(test)] mod name;` is test code throughout (non-test and code
# 0), as in `scripts/dead-pub.sh`; the module files that could declare
# a counted file (`lib.rs`, `main.rs`, `mod.rs` beside it, or the
# parent module's `<dir>.rs`) are read first to find such files.
#
#   scripts/loc.sh crates/ooc-runtime/src/{pool,striped,repair}.rs
#   scripts/loc.sh                      # every .rs file under crates/*/src
#   scripts/loc.sh --tests              # the integration tests: every .rs
#                                       # file under tests/, and
#                                       # crates/*/tests/*.rs
set -eu

# Paths are the caller's, relative to the caller's directory; only the
# two default sets are taken from the checkout this script lives in.
if [ "$#" -eq 0 ]; then
  cd "$(dirname "$0")/.."
  # shellcheck disable=SC2046  # paths in this repo hold no spaces
  set -- $(find crates/*/src -name '*.rs' | sort)
elif [ "$#" -eq 1 ] && [ "$1" = "--tests" ]; then
  cd "$(dirname "$0")/.."
  # shellcheck disable=SC2046  # paths in this repo hold no spaces
  set -- $( (find tests -name '*.rs'; ls crates/*/tests/*.rs) | sort)
fi

declarers="$(for f in "$@"; do
  d="$(dirname "${f%/mod.rs}")"
  for c in "$d/lib.rs" "$d/main.rs" "$d/mod.rs" "$d.rs"; do
    if [ -f "$c" ]; then printf '%s\n' "$c"; fi
  done
done | sort -u)"

# shellcheck disable=SC2086  # paths in this repo hold no spaces
awk '
  # Declaring pass: `#[cfg(test)]` followed by `mod name;` (on the
  # same line or the next) marks name.rs and name/mod.rs as test files.
  counting == 0 {
    line = $0
    if (FNR == 1) pending = 0
    if (pending || line ~ /^[ \t]*#\[cfg\(test\)\]/) {
      sub(/^[ \t]*#\[cfg\(test\)\][ \t]*/, "", line)
      if (line ~ /^(pub(\(crate\))?[ \t]+)?mod[ \t]+[A-Za-z_][A-Za-z0-9_]*[ \t]*;/) {
        sub(/^(pub(\(crate\))?[ \t]+)?mod[ \t]+/, "", line)
        sub(/[ \t]*;.*$/, "", line)
        dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
        base = FILENAME; sub(/^.*\//, "", base)
        if (base != "lib.rs" && base != "main.rs" && base != "mod.rs") {
          sub(/\.rs$/, "", base); dir = dir "/" base
        }
        test_file[dir "/" line ".rs"] = 1
        test_file[dir "/" line "/mod.rs"] = 1
        pending = 0
      } else {
        pending = (line ~ /^[ \t]*$/)
      }
    }
    next
  }
  FNR == 1 { if (file != "") row(file); file = FILENAME; total = nontest = code = 0; in_test = (FILENAME in test_file) }
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
' counting=0 $declarers counting=1 "$@"
