#!/usr/bin/env bash
# Size of the non-test Rust, per crate, the `pub` struct fields of the
# library crates, and their `pub`/`pub(crate)` functions that no program
# calls.
#
# A file counts up to the `#[cfg(test)]` that opens its test module (a
# `mod` item), not up to the first test-only item, so deleting a
# `#[cfg(test)]` helper shrinks the count instead of growing it. A file that
# is itself a `#[cfg(test)] mod x;` target (`tests.rs`) does not count.
#
# Usage: scripts/loc.sh [<dir>=repo root]
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

LIBS="core lake stream lakebrain simdisk plog common workloads kvstore format baselines ec"

# Lines of one file before the `#[cfg(test)]` whose next item (further
# attributes skipped) is a `mod`; the whole file when it has none.
count_file() {
    awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ && !pending { pending = 1; at = NR - 1; next }
        pending && /^[[:space:]]*#\[/ { next }
        pending && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { print at; found = 1; exit }
        pending { pending = 0 }
        END { if (!found) print NR }
    ' "$1"
}

total=0
report() {
    local name="$1"; shift
    local sum=0 f n
    while IFS= read -r f; do
        [ "$(basename "$f")" = tests.rs ] && continue
        n="$(count_file "$f")"
        sum=$((sum + n))
    done < <(find "$@" -name '*.rs' 2>/dev/null | sort)
    printf '%-12s %7d\n' "$name" "$sum"
    total=$((total + sum))
}

echo "non-test Rust lines (each file up to its #[cfg(test)] mod)"
for dir in crates/*/; do
    report "$(basename "$dir")" "$dir"src
done
report "src" src
report "examples" examples
printf '%-12s %7d\n' "total" "$total"

echo
echo "pub struct fields, library crates"
fields=0
for c in $LIBS; do
    n="$(grep -rEh '^[[:space:]]+pub [a-z_][a-zA-Z0-9_]*[[:space:]]*:' "crates/$c/src" | wc -l)"
    printf '%-12s %7d\n' "$c" "$n"
    fields=$((fields + n))
done
printf '%-12s %7d\n' "total" "$fields"

# A function counts as named when its name occurs, outside a `//` comment
# or a one-line string literal and not right after `fn `, in the non-test code (same cut as above) of
# crates/*/src, src, examples or benchmark/src. The match is by name only,
# so a function that shares its name with another item (`recover`, `new`)
# counts as named and is missed here.
echo
echo "pub fns of the library crates that no non-test code names"
code="$(mktemp)"
trap 'rm -f "$code"' EXIT
while IFS= read -r f; do
    [ "$(basename "$f")" = tests.rs ] && continue
    head -n "$(count_file "$f")" "$f" | sed -E 's/"([^"\\]|\\.)*"/""/g; s://.*$::'
done < <(find crates/*/src src examples benchmark/src -name '*.rs' 2>/dev/null | sort) >"$code"
unnamed="$(
    for c in $LIBS; do
        while IFS= read -r f; do
            [ "$(basename "$f")" = tests.rs ] && continue
            head -n "$(count_file "$f")" "$f" |
                grep -oE '^[[:space:]]*pub(\(crate\))? +(const +)?fn +[a-z_][a-zA-Z0-9_]*' |
                sed -E "s|.*fn +|$f |"
        done < <(find "crates/$c/src" -name '*.rs' | sort)
    done | while read -r f name; do
        grep -qP "(?<!fn )\\b$name\\b" "$code" || printf '%-40s %s\n' "$f" "$name"
    done
)"
[ -n "$unnamed" ] && echo "$unnamed"
printf '%-12s %7d\n' "total" "$(grep -c . <<<"$unnamed" || true)"
