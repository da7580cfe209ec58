#!/usr/bin/env bash
# Report digests: runs every figure, table and ablation bench and every
# example, and compares a SHA-256 digest of each one's standard output,
# and of its --json report where it writes one, with a recorded list.
# Prints one line per report that differs (or is missing from the
# list) and exits non-zero when any does. The binaries print no host
# times, so every digest is fixed for a given model and build.
#
# Usage: tests/report_digests.sh <build dir> <digest file> [--record]
#   --record rewrites <digest file> from this build instead, so a
#   deliberate model change is a one-file diff naming the reports that
#   moved.
# ctest runs it as `report_digests` with MCBP_SERVING_STEP=coalesced.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 || ( $# -eq 3 && "$3" != "--record" ) ]]; then
    echo "usage: $0 <build dir> <digest file> [--record]" >&2
    exit 2
fi
build=$1
golden=$2
record=${3:-}

stdout_reports=(
    bench_ablation_design_choices bench_fig01_latency_breakdown
    bench_fig05_motivation bench_fig17_comp_mem bench_fig18_dse_group_size
    bench_fig19_ablation_latency bench_fig20_throughput_efficiency
    bench_fig21_gain_breakdown bench_fig22_area_power
    bench_fig23_sota_comparison bench_fig24_alpha_ablation
    bench_fig25_quant_sparsity bench_fig26_cambricon bench_tab02_accuracy
    bench_tab03_config bench_tab04_sota_summary
    example_compression_explorer example_design_space
    example_llm_inference example_quickstart example_serving
)
json_reports=(bench_fig20_throughput_efficiency bench_fig23_sota_comparison
              example_serving)

work=$(mktemp -d "${TMPDIR:-/tmp}/report_digests.XXXXXX")
trap 'rm -rf "$work"' EXIT

digest() { sha256sum | cut -d' ' -f1; }
for t in "${stdout_reports[@]}"; do
    echo "$("$build/$t" | digest) $t stdout"
done >"$work/digests.txt"
for t in "${json_reports[@]}"; do
    "$build/$t" --json "$work/$t.json" >/dev/null
    echo "$(digest <"$work/$t.json") $t --json"
done >>"$work/digests.txt"

if [[ -n "$record" ]]; then
    cp "$work/digests.txt" "$golden"
    echo "report_digests: recorded $(wc -l <"$golden") digests in $golden"
    exit 0
fi

status=0
if [[ $(wc -l <"$golden") -ne $(wc -l <"$work/digests.txt") ]]; then
    echo "DIFFERS: the list of reports"
    status=1
fi
while read -r sum name; do
    want=$(awk -v n="$name" '{ d = $1; $1 = ""; sub(/^ /, "");
                               if ($0 == n) print d }' "$golden")
    if [[ "$want" != "$sum" ]]; then
        echo "DIFFERS: $name"
        status=1
    fi
done <"$work/digests.txt"
if [[ $status -eq 0 ]]; then
    echo "report_digests: all $(wc -l <"$work/digests.txt") reports match"
fi
exit "$status"
