#!/usr/bin/env bash
# Docs budget: the decision records, the README and the verify notes stay
# short enough to read as a specification, and every reference into them
# resolves. Fails, naming the file, when
#   - a docs/architecture/ADR-*.md, README.md or the verify SKILL.md is
#     longer than 300 lines;
#   - an ADR-NNN cited in a tracked .go, .md, .yml or .sh file has no file;
#   - a backticked path to a docs/architecture/ .md file does not exist;
#   - an "ADR-NNN's [first|second|…] amendment" citation has no row in
#     that ADR's History table naming the amendment.
# The files searched are every tracked file of those kinds below the root,
# and the root's README, ROADMAP and CHANGES; the root's paper excerpts
# quote other repositories. Run from anywhere in the checkout:
#   bash .github/scripts/docs.sh
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

adrs=docs/architecture
skill=.claude/skills/verify/SKILL.md
budget=300
fail=0
bad() { echo "docs: $*" >&2; fail=1; }

total=0
for f in "$adrs"/ADR-*.md README.md "$skill"; do
  n=$(wc -l < "$f")
  case "$f" in "$adrs"/*) total=$((total + n)) ;; esac
  [ "$n" -le "$budget" ] || bad "$f is $n lines, over the budget of $budget"
done

mapfile -t files < <(git ls-files -- '*.go' '*.yml' '*.sh' README.md ROADMAP.md CHANGES.md ':(glob)*/**/*.md')

while IFS=: read -r f id; do
  compgen -G "$adrs/$id-*.md" > /dev/null || bad "$f cites $id, which has no file under $adrs/"
done < <(grep -oHE 'ADR-[0-9]{3}' "${files[@]}" | sort -u)

while IFS=: read -r f path; do
  path=${path//\`/}
  [ -f "$path" ] || bad "$f names $path, which does not exist"
done < <(grep -oHE '`docs/architecture/[^` ]*\.md`' "${files[@]}" | sort -u)

# A History row names its amendment ("| second amendment | …"); a bare
# "ADR-NNN's amendment" needs some amendment row.
history() { awk '/^## History/ { on = 1; next } /^## / { on = 0 } on && /^\|/' "$1"; }
while IFS=: read -r f cite; do
  id=${cite%%\'*}
  ord=${cite#*\'s }
  adr=$(compgen -G "$adrs/$id-*.md" | head -n 1) || continue
  history "$adr" | grep -qiF "$ord" || bad "$f cites \"$cite\", which has no row in $adr's History table"
done < <(grep -oHE "ADR-[0-9]{3}'s ((first|second|third|fourth|fifth) )?amendment" "${files[@]}" | sort -u)

[ "$fail" -eq 0 ] || exit 1
echo "docs: $(compgen -G "$adrs/ADR-*.md" | wc -l) ADRs, $total lines; README $(wc -l < README.md), SKILL.md $(wc -l < "$skill") (budget $budget each); every citation resolves"
