#!/usr/bin/env bash
# Report parity against a base commit.
#
# Builds example_serving and bench_fig20_throughput_efficiency (Release)
# at <base-ref>, checked out in a temporary git worktree, and in the
# working tree; runs each binary with --json in both trees and byte-
# compares the two JSON reports. Prints one line per report, names each
# one that differs, and exits non-zero when any does. The worktree and
# both build directories are removed on exit.
#
# Usage: tools/report_parity.sh <base-ref>
#   e.g. tools/report_parity.sh HEAD~1
# The temporary directory goes under $TMPDIR (default /tmp).
set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: $0 <base-ref>" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") || {
    echo "report_parity: '$1' names no commit" >&2
    exit 2
}

work=$(mktemp -d "${TMPDIR:-/tmp}/report_parity.XXXXXX")
cleanup() {
    git -C "$root" worktree remove --force "$work/base" 2>/dev/null || true
    git -C "$root" worktree prune
    rm -rf "$work"
}
trap cleanup EXIT
git -C "$root" worktree add --detach --quiet "$work/base" "$base"

targets=(example_serving bench_fig20_throughput_efficiency)
build() { # <source dir> <build dir>; the log is shown only on failure.
    if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release &&
           cmake --build "$2" -j "$(nproc)" --target "${targets[@]}"; } \
        >"$2.log" 2>&1; then
        tail -n 40 "$2.log" >&2
        echo "report_parity: build of $1 failed" >&2
        exit 2
    fi
}
echo "report_parity: building ${base:0:12} and the working tree"
build "$work/base" "$work/build-base"
build "$root" "$work/build-head"

status=0
for t in "${targets[@]}"; do
    for side in base head; do
        "$work/build-$side/$t" --json "$work/$t.$side.json" >/dev/null
    done
    if cmp "$work/$t.base.json" "$work/$t.head.json"; then
        echo "same:    $t --json"
    else
        echo "DIFFERS: $t --json"
        status=1
    fi
done
exit "$status"
