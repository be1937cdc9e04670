#!/usr/bin/env bash
# Net non-test line count between a base revision and the working tree.
#
# Usage: scripts/net_lines.sh <base-rev>
#
# For every tracked *.rs file outside a tests/ directory, counts its lines
# except the items gated by `#[cfg(test)]` (in-file unit tests are not
# counted), at <base-rev> and in the working tree, and prints the
# difference per crate (crates/<name>/...) or top-level directory, then the
# total. Negative means lines were removed.
#
# A `#[cfg(test)]` item runs from the attribute to the `}` that closes its
# first `{` (or to its `;` if it has no body), found by brace matching
# with string and char literals and `//` comments blanked out. Code after
# a test module is counted.
set -euo pipefail
cd "$(dirname "$0")/.."
base=${1:?usage: scripts/net_lines.sh <base-rev>}
git rev-parse -q --verify "$base^{commit}" >/dev/null || {
    echo "net_lines.sh: unknown revision $base" >&2
    exit 2
}

read -r -d '' NON_TEST <<'AWK' || true
skip == 0 && /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0 }
skip == 0 { n++; next }
{
    line = $0
    gsub(/"([^"\\]|\\.)*"/, "", line)
    gsub(/'(\\.|[^\\'])'/, "", line)
    sub(/\/\/.*/, "", line)
    for (i = 1; i <= length(line); i++) {
        c = substr(line, i, 1)
        if (c == "{") { depth++; opened = 1 }
        else if (c == "}") { depth-- }
        else if (c == ";" && !opened && depth == 0) { skip = 0; break }
        if (opened && depth == 0) { skip = 0; break }
    }
}
END { print n + 0 }
AWK
non_test() { awk "$NON_TEST"; }
group() {
    case $1 in
        crates/*) cut -d/ -f2 <<<"$1" ;;
        */*) echo "${1%%/*}" ;;
        *) echo . ;;
    esac
}
rs_files() { grep -E '\.rs$' | grep -Ev '(^|/)tests/' || true; }

{
    git ls-tree -r --name-only "$base" | rs_files | while read -r f; do
        printf '%s\t-%d\n' "$(group "$f")" "$(git show "$base:$f" | non_test)"
    done
    git ls-files | rs_files | while read -r f; do
        if [[ -f $f ]]; then
            printf '%s\t%d\n' "$(group "$f")" "$(non_test <"$f")"
        fi
    done
} | awk -F'\t' '{ d[$1] += $2 } END { for (k in d) printf "%s\t%d\n", k, d[k] }' |
    sort |
    awk -F'\t' '{ t += $2; if ($2 != 0) printf "%-12s %+7d\n", $1, $2 }
                END { printf "%-12s %+7d\n", "TOTAL", t }'
