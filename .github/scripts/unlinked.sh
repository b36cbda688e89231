#!/usr/bin/env bash
# Every non-test function under internal/ has a production caller
# (ADR-018's amendment): it is linked into at least one binary of the
# repository, or its doc comment carries a `// kept: <item or reason>`
# line. internal/lint sits out: ac3lint's analyzers are its own surface.
#
# Binaries: every main under cmd/ and examples/, and the benchmark/
# module. -gcflags=all=-l turns inlining off, so a function inlined at
# every call site still leaves a symbol. The union of their repro/...
# text symbols (generic instantiations stripped) is compared with every
# top-level func declared in non-test Go under internal/.
#
# Fails on an unlinked function without a `// kept:` line, or when the
# kept ones are more than the ceiling. Prints, without failing, the
# functions only the benchmark/ binary links (ROADMAP item 8's list).
#
# Run from the repository root: bash .github/scripts/unlinked.sh
set -euo pipefail

ceiling=8 # unlinked functions with a `// kept:` line

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mains=$(go list -f '{{if eq .Name "main"}}{{.Dir}}{{end}}' ./cmd/... ./examples/...)
for dir in $mains; do
	go build -gcflags=all=-l -o "$tmp/bin/$(basename "$dir")" "$dir"
done
go build -C benchmark -gcflags=all=-l -o "$tmp/bench/benchmark" .

# Symbol names (which may hold spaces) without instantiation brackets,
# innermost first:
# (*slot[go.shape.string,go.shape.[]uint8]).Get -> (*slot).Get.
syms() {
	for bin in "$@"; do go tool nm "$bin"; done |
		awk '($2 == "T" || $2 == "t") { sub(/^ *[0-9a-f]+ [Tt] /, ""); if (/^repro\//) print }' |
		sed -E ':a; s/\[[^][]*\]//g; ta' | sort -u
}
syms "$tmp"/bin/* >"$tmp/main.syms"
syms "$tmp/bench/benchmark" >"$tmp/bench.syms"
sort -u "$tmp/main.syms" "$tmp/bench.syms" >"$tmp/all.syms"

# One line per declared function: "<symbol> <kept 0|1> <file>:<line>".
# A method on (s *slot[K, V]) is repro/<dir>.(*slot).Name, a function
# repro/<dir>.Name; `// kept:` counts anywhere in the doc comment.
find internal -name '*.go' -not -name '*_test.go' -not -path 'internal/lint/*' -not -path '*/testdata/*' | sort |
	xargs awk '
		FNR == 1 { kept = 0; pkg = FILENAME; sub(/\/[^\/]*$/, "", pkg) }
		/^\/\// { if ($0 ~ /^\/\/ kept:/) kept = 1; next }
		/^func / {
			line = $0; sub(/^func /, "", line); recv = ""
			if (line ~ /^\(/) {
				recv = substr(line, 2, index(line, ")") - 2)
				line = substr(line, index(line, ")") + 1); sub(/^ +/, "", line)
				sub(/\[.*$/, "", recv); n = split(recv, f, " "); recv = f[n]
				recv = (recv ~ /^\*/) ? "(" recv ")." : recv "."
			}
			match(line, /^[A-Za-z0-9_]+/); name = substr(line, 1, RLENGTH)
			if (name != "init" && name != "_")
				print "repro/" pkg "." recv name, kept, FILENAME ":" FNR
		}
		{ kept = 0 }
	' >"$tmp/decl"

unlinked=0 kept=0 bad=0
while read -r sym k where; do
	if grep -qxF "$sym" "$tmp/all.syms"; then
		if ! grep -qxF "$sym" "$tmp/main.syms"; then
			echo "benchmark/ only: $sym ($where)"
		fi
		continue
	fi
	unlinked=$((unlinked + 1))
	if [ "$k" = 1 ]; then
		kept=$((kept + 1))
	else
		echo "no production caller and no // kept: line: $sym ($where)" >&2
		bad=$((bad + 1))
	fi
done <"$tmp/decl"

echo "declared $(wc -l <"$tmp/decl"), unlinked $unlinked, kept $kept (ceiling $ceiling)"
if [ "$kept" -gt "$ceiling" ]; then
	echo "$kept functions kept without a production caller, over the ceiling of $ceiling" >&2
fi
[ "$bad" -eq 0 ] && [ "$kept" -le "$ceiling" ]
