#!/usr/bin/env bash
# Public items nothing calls. rustc's `dead_code` lint never fires on a
# `pub` item, and the `pub use` lists in each `lib.rs` hide which ones
# have a caller, so this word-match scan does that part of the audit.
#
#   scripts/dead-pub.sh crates/ooc-core/src     # one crate
#   scripts/dead-pub.sh                         # every crates/*/src
#
# An item is a `pub fn`, `pub const`, `pub static` or `pub type`
# declared in a scanned file before its `#[cfg(test)]` part. A use is
# the item's name, as a whole word, on a line of any `.rs` file under
# `crates/`, `src/`, `tests/`, `examples/` or `benchmark/src/` of the
# checkout this script lives in, except comment lines, `pub use`
# re-exports, the name's own declarations (`fn name`, `const name`,
# `static name`, `type name`), a lower-case name in field syntax
# (`x.name` not followed by `(` or `::`, and `name:`), which names a
# field or a binding that shares a function's name, and text inside a
# literal. Literals are blanked before words are matched: first the
# char literals `'"'` and `b'"'`, then string, byte-string and raw-
# string literals (`"…"`, `b"…"`, `r#"…"#`, `br"…"`). A literal that
# spans lines (raw JSON fixtures, `\`-continued format strings; 46 in
# the corpus when this rule was written) is followed to its closing
# quote, so none of its lines count; a trailing `//` comment is left
# as it is. Test code is a file's `#[cfg(test)]` part, a whole file
# declared as `#[cfg(test)] mod name;`, and any file under a `tests/`
# directory. One row per item no other file's code uses:
#
#   unreferenced  named nowhere but its declaration
#   own-file      named by its own file's code, and by no other file:
#                 make it private (a `type` a public signature names:
#                 write the type out)
#   test-only     named only by its own file's tests
#   test-reached  named by test code only, in some other file too
#
# printed as `class file:line kind name`, with a count per class on
# stderr. Exits 1 when an `unreferenced` or `own-file` row remains;
# `test-only` and `test-reached` rows are advisory. Paths are the
# caller's, relative to the caller's directory; only the default set
# is taken from this checkout.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
if [ "$#" -eq 0 ]; then
  cd "$root"
  set -- crates/*/src
fi

# Scanned files as `canonical<TAB>display`, then every file read once
# under its canonical name: the corpus plus any scanned file outside it.
scanned="$(find "$@" -name '*.rs' | sort | while read -r f; do
  printf '%s\t%s\n' "$(realpath "$f")" "$f"
done)"
corpus="$(cd "$root" && find crates src tests examples benchmark/src -name '*.rs' 2>/dev/null |
  sed "s|^|$root/|")"
# shellcheck disable=SC2046  # paths in this repo hold no spaces
set -- $( (printf '%s\n' "$corpus"; printf '%s\n' "$scanned" | cut -f1) | sort -u)

# Pass 0 reads the scanned list, pass 1 finds the files declared as
# `#[cfg(test)] mod name;`, pass 2 collects items and uses.
printf '%s\n' "$scanned" | awk -v FS='\t' -v root="$root" -v sq="'" '
  # The line with every identifier in field syntax blanked out.
  function drop_fields(s,   out, pre, id) {
    out = ""
    while (match(s, /[A-Za-z_][A-Za-z0-9_]*/)) {
      pre = substr(s, 1, RSTART - 1)
      id = substr(s, RSTART, RLENGTH)
      s = substr(s, RSTART + RLENGTH)
      if (id ~ /^[a-z_]/ && ((pre ~ /\.$/ && s !~ /^(\(|::)/) || (s ~ /^:($|[^:])/ && pre !~ /::$/))) id = ""
      out = out pre id
    }
    return out s
  }
  # The line with every literal replaced by `""`. A literal still open
  # at the end of the line leaves `lit` set (`q` for a string, `r` for
  # a raw string closed by a quote and `hashes`) for the next line.
  function drop_literals(s,   out, pre, at) {
    gsub("b?" sq "\"" sq, sq " " sq, s)
    out = ""
    while (s != "") {
      if (lit == "q") {
        if (!match(s, /^(\\.|[^\\"])*"/)) return out
        s = substr(s, RLENGTH + 1); lit = ""; out = out "\"\""
      } else if (lit == "r") {
        at = index(s, "\"" hashes)
        if (!at) return out
        s = substr(s, at + 1 + length(hashes)); lit = ""; out = out "\"\""
      } else {
        if (!match(s, /\/\/|"/) || substr(s, RSTART, RLENGTH) == "//") return out s
        pre = substr(s, 1, RSTART - 1)
        s = substr(s, RSTART + 1)
        # A `b`, `r` or `br` prefix, with any raw-string hashes, goes
        # with its literal when it starts a token.
        lit = "q"
        if (match(pre, /b?r#*$|b$/) && (RSTART == 1 || substr(pre, RSTART - 1, 1) !~ /[A-Za-z0-9_]/)) {
          hashes = substr(pre, RSTART)
          if (sub(/^b?r/, "", hashes)) lit = "r"
          pre = substr(pre, 1, RSTART - 1)
        }
        out = out pre
      }
    }
    return out
  }
  pass == 0 { if ($1 != "") display[$1] = $2; next }
  FNR == 1 {
    in_test = 0; pending_cfg = 0; in_reexport = 0; lit = ""
    rel = FILENAME
    if (index(rel, root "/") == 1) rel = substr(rel, length(root) + 2)
    test_path = (FILENAME in test_file) || rel ~ /(^|\/)tests\//
  }
  {
    line = $0
    if (pending_cfg) {
      pending_cfg = 0
      # `#[cfg(test)] mod name;` makes name.rs test code, not the rest
      # of this file.
      if (line ~ /^[ \t]*(pub(\(crate\))?[ \t]+)?mod[ \t]+[A-Za-z_][A-Za-z0-9_]*[ \t]*;/) {
        m = line
        sub(/^[ \t]*(pub(\(crate\))?[ \t]+)?mod[ \t]+/, "", m)
        sub(/[ \t]*;.*$/, "", m)
        dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
        base = FILENAME; sub(/^.*\//, "", base)
        if (base != "lib.rs" && base != "main.rs" && base != "mod.rs") {
          sub(/\.rs$/, "", base); dir = dir "/" base
        }
        test_file[dir "/" m ".rs"] = 1
        test_file[dir "/" m "/mod.rs"] = 1
      } else {
        in_test = 1
      }
    }
    if (lit == "") {
      if (line ~ /^[ \t]*#\[cfg\(test\)\]/) { pending_cfg = 1; next }
      if (line ~ /^[ \t]*\/\//) next
    }
    if (pass == 1) next
    if (lit == "" && (in_reexport || line ~ /^[ \t]*pub(\(crate\))?[ \t]+use[ \t]/)) {
      in_reexport = (line !~ /;/)
      next
    }
    part = (in_test || test_path) ? "test" : "code"

    if (lit == "" && part == "code" && (FILENAME in display) && line ~ /^[ \t]*pub[ \t]/) {
      s = line
      sub(/^[ \t]*pub[ \t]+/, "", s)
      kind = ""
      if (match(s, /^((const|unsafe|async|extern[ \t]+"[^"]*")[ \t]+)*fn[ \t]+/)) kind = "fn"
      else if (match(s, /^const[ \t]+/)) kind = "const"
      else if (match(s, /^static[ \t]+(mut[ \t]+)?/)) kind = "static"
      else if (match(s, /^type[ \t]+/)) kind = "type"
      if (kind != "") {
        s = substr(s, RSTART + RLENGTH)
        if (match(s, /^[A-Za-z_][A-Za-z0-9_]*/)) {
          n_items++
          item_file[n_items] = FILENAME
          item_line[n_items] = FNR
          item_kind[n_items] = kind
          item_name[n_items] = substr(s, 1, RLENGTH)
        }
      }
    }

    line = drop_fields(drop_literals(line))
    gsub(/[^A-Za-z0-9_]+/, " ", line)
    n = split(line, w, " ")
    for (i = 1; i <= n; i++) {
      if (i > 1 && (w[i-1] == "fn" || w[i-1] == "const" || w[i-1] == "static" || w[i-1] == "type")) continue
      total[w[i], part]++
      uses[w[i], FILENAME, part]++
    }
  }
  END {
    for (k = 1; k <= n_items; k++) {
      f = item_file[k]; name = item_name[k]
      if (f in test_file) continue
      own_code = uses[name, f, "code"] + 0
      own_test = uses[name, f, "test"] + 0
      other_code = total[name, "code"] - own_code
      other_test = total[name, "test"] - own_test
      if (other_code > 0) continue
      if (own_code > 0) {
        if (other_test > 0) continue
        class = "own-file"
      }
      else if (other_test > 0) class = "test-reached"
      else if (own_test > 0) class = "test-only"
      else class = "unreferenced"
      count[class]++
      printf "%s %s:%d %s %s\n", class, display[f], item_line[k], item_kind[k], name
    }
    printf "%d unreferenced, %d own-file, %d test-only, %d test-reached\n", count["unreferenced"], count["own-file"], count["test-only"], count["test-reached"] > "/dev/stderr"
    exit (count["unreferenced"] + count["own-file"] > 0)
  }
' pass=0 - pass=1 "$@" pass=2 "$@"
