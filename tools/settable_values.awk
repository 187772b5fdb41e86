# Lists the library's settable values: the non-static data members with a
# default member initializer (`double x = 1.0;`, `int n{3};`) of every
# struct or class named *Config, *Params, *Model or *Schedule, nested
# types included. One line per value, for example
#
#   src/net/traffic.hpp:64 mmtag::net::TrafficConfig::seed
#
# Usage: awk -f tools/settable_values.awk src/*/*.hpp
#
# ci.sh fails unless the qualified names, sorted (LC_ALL=C), equal
# tools/settable_values.txt and docs/ARCHITECTURE.md states their number. To find the values only tests set, search each name by
# member access (`.name`, `->name`) and by brace-init in src/ outside its
# own module, bench/, examples/ and perfbench/.
#
# The parser knows what the headers under src/ use, no more: comments,
# preprocessor lines and literals are dropped; a `{` opens a type (after
# struct, class, union, enum or namespace), a function body (after a
# top-level `(` outside template brackets) or a brace initializer
# (anything else); a member declaration ends at its `;`.

function reset() {
  head = ""; name = ""; member = ""; line_of = 0
  has_init = 0; excluded = 0; has_paren = 0; angle = 0
  last = ""
}

function qualified(   d, q) {
  q = ""
  for (d = 1; d <= depth; d++)
    if (scope[d] != "") q = q scope[d] "::"
  return q
}

function end_statement() {
  if (kind[depth] == "type" &&
      scope[depth] ~ /(Config|Params|Model|Schedule)$/ && has_init &&
      !excluded && !has_paren && member != "")
    print FILENAME ":" line_of " " qualified() member
  reset()
}

function open_scope(s, k) {
  depth++; scope[depth] = s; kind[depth] = k
}

FNR == 1 { depth = 0; skip = 0; in_comment = 0; reset() }

{
  text = $0; out = ""
  while (text != "") {
    if (in_comment) {
      p = index(text, "*/")
      if (!p) break
      text = substr(text, p + 2); in_comment = 0
    } else {
      p = index(text, "/*")
      if (!p) { out = out text; break }
      out = out substr(text, 1, p - 1); text = substr(text, p + 2)
      in_comment = 1
    }
  }
  text = out
  sub(/\/\/.*/, "", text)
  if (text ~ /^[[:space:]]*#/) next
  gsub(/"([^"\\]|\\.)*"/, "\"\"", text)
  gsub(/'([^'\\]|\\.)'/, "''", text)
  gsub(/::/, " @@ ", text)
  gsub(/[{};=()<>,:]/, " & ", text)
  gsub(/@@/, "::", text)
  n = split(text, tok, /[[:space:]]+/)
  for (i = 1; i <= n; i++) {
    t = tok[i]
    if (t == "") continue
    if (skip > 0) {
      # Inside a function body or a brace initializer only braces count.
      if (t == "{") skip++
      else if (t == "}" && --skip == 0 && skip_body) reset()
      continue
    }
    if (t == "{") {
      if (head == "struct" || head == "class" || head == "union") {
        open_scope(name, "type"); reset()
      } else if (head == "enum") {
        open_scope("", "enum"); reset()
      } else if (head == "namespace") {
        open_scope(name, "namespace"); reset()
      } else if (has_paren && !has_init) {
        skip = 1; skip_body = 1
      } else {
        if (!has_init) { member = last; line_of = FNR; has_init = 1 }
        skip = 1; skip_body = 0
      }
      continue
    }
    if (t == "}") { if (depth > 0) depth--; reset(); continue }
    if (t == ";") { end_statement(); continue }
    if (t == ":" && last ~ /^(public|private|protected)$/) { reset(); continue }
    if (t ~ /^(static|using|friend|typedef|operator|template)$/) excluded = 1
    if (head == "" && t ~ /^(struct|class|union|enum|namespace)$/) {
      head = t
    } else if (head != "" && t ~ /^[A-Za-z_][A-Za-z0-9_]*$/ && t != "class" &&
               (name == "" || (head == "namespace" && last == "::"))) {
      name = (name == "") ? t : name "::" t
    }
    if (!has_init) {
      if (t == "<") angle++
      else if (t == ">") angle--
      else if (t == "(" && angle == 0) has_paren = 1
      else if (t == "=") { member = last; line_of = FNR; has_init = 1 }
    }
    last = t
  }
}
