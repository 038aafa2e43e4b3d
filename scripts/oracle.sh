#!/usr/bin/env bash
# Behavioural oracle: the virtual-time smoke bins must print the same bytes
# on this tree as on <ref> (default HEAD~1; pass HEAD to compare uncommitted
# work against the last commit). Checks <ref> out into a git worktree under
# target/oracle/, builds both trees' bench bins in release, runs each bin
# from its own tree root and diffs standard output. Exits non-zero on any
# difference (or any bin failing on either side).
set -euo pipefail
cd "$(dirname "$0")/.."

ref="${1:-HEAD~1}"
bins=(repro_all phase_smoke chore_soak stream_scale tenant_isolation txn_atomic)
root="$PWD"
work="$root/target/oracle"
tree="$work/tree"

mkdir -p "$work/out/ref" "$work/out/here"
git worktree remove --force "$tree" 2>/dev/null || true
git worktree add --quiet --detach "$tree" "$ref"
trap 'git -C "$root" worktree remove --force "$tree"' EXIT

bin_args=()
for b in "${bins[@]}"; do bin_args+=(--bin "$b"); done
cargo build --release --offline -p bench "${bin_args[@]}"
# A target dir of its own: the two trees' artifacts must not overwrite each
# other, and it survives the worktree so the next run builds incrementally.
(cd "$tree" && CARGO_TARGET_DIR="$work/target" cargo build --release --offline -p bench "${bin_args[@]}")

status=0
for b in "${bins[@]}"; do
    (cd "$tree" && "$work/target/release/$b") >"$work/out/ref/$b.txt"
    "$root/target/release/$b" >"$work/out/here/$b.txt"
    if diff -u "$work/out/ref/$b.txt" "$work/out/here/$b.txt" >"$work/out/$b.diff"; then
        echo "oracle: $b identical to $ref"
    else
        echo "oracle: $b DIFFERS from $ref (target/oracle/out/$b.diff):"
        head -n 40 "$work/out/$b.diff"
        status=1
    fi
done
exit $status
