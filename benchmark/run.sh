#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it; every argument goes to
# the binary (see README.md). Run from the repository root or anywhere else.
#
#   bash benchmark/run.sh                  all workloads, both passes (~2.7 min)
#   bash benchmark/run.sh --quick          op counts / 10, one repetition (smoke)
#   bash benchmark/run.sh --workload dev-churn-gc --seed 7 --seconds 20 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bin="${CARGO_TARGET_DIR:-$here/target}/release/insider-benchmark"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

commit="$(git -C "$here" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
if [ "$commit" != unknown ] && ! git -C "$here" diff --quiet HEAD 2>/dev/null; then
    commit="$commit+dirty"
fi
export BENCH_GIT_COMMIT="$commit"
BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export BENCH_RUSTC

case " $* " in
*" --workload "*) exec "$bin" "$@" ;;
esac

# No workload named: all four, one process each, so that no workload's
# resident memory or allocator state depends on the ones run before it.
# `--json PATH.json` becomes `PATH.<workload>.json`.
status=0
for workload in fs-office-cached fs-attack-recover dev-churn-gc dev-read-mostly; do
    args=()
    for ((i = 1; i <= $#; i++)); do
        if [ "${!i}" = --json ] && [ "$i" -lt $# ]; then
            i=$((i + 1))
            args+=(--json "${!i%.json}.$workload.json")
        else
            args+=("${!i}")
        fi
    done
    "$bin" --workload "$workload" "${args[@]}" || status=$?
done
exit "$status"
