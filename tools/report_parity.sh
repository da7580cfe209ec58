#!/usr/bin/env bash
# Report parity against a base commit.
#
# Builds the report binaries (Release) at <base-ref>, extracted with
# `git archive` into a temporary directory, and in the working tree;
# runs each binary in both trees and byte-compares what it reports:
# the --json reports of example_serving, bench_fig20_throughput_efficiency
# and bench_fig23_sota_comparison, and the standard output of
# bench_fig17_comp_mem and bench_tab04_sota_summary (both print numbers
# derived from the weight profile). Prints one line per report, names
# each one that differs, and exits non-zero when any does. The
# extracted tree and both build directories are removed on exit; the
# repository's .git is only read.
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
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$root" archive "$base" | tar -x -C "$work/base"

json_targets=(example_serving bench_fig20_throughput_efficiency
              bench_fig23_sota_comparison)
stdout_targets=(bench_fig17_comp_mem bench_tab04_sota_summary)
targets=("${json_targets[@]}" "${stdout_targets[@]}")
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
compare() { # <report name> <base file> <head file>
    if cmp "$2" "$3"; then
        echo "same:    $1"
    else
        echo "DIFFERS: $1"
        status=1
    fi
}
for t in "${json_targets[@]}"; do
    for side in base head; do
        "$work/build-$side/$t" --json "$work/$t.$side.json" >/dev/null
    done
    compare "$t --json" "$work/$t.base.json" "$work/$t.head.json"
done
for t in "${stdout_targets[@]}"; do
    for side in base head; do
        "$work/build-$side/$t" >"$work/$t.$side.out"
    done
    compare "$t stdout" "$work/$t.base.out" "$work/$t.head.out"
done
exit "$status"
