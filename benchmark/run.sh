#!/usr/bin/env bash
# The benchmark's one command: build the product's binaries, the runner and
# (for a traced run) the layer drivers, in release, offline; then run.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh                       # all four workloads, end to end
#   benchmark/run.sh --quick               # smoke test: small sizes, same checks
#   benchmark/run.sh compare A B           # compare two result sets
#
# Everything is written inside the checkout: build output and temporary
# files under $CARGO_TARGET_DIR (default .bench_build), results under
# benchmark/results. Compile time is not part of any metric.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
bin="$target/release"

build() { cargo build --release --offline --quiet "$@" >&2; }

# The product, from the repository's own workspace and lock file.
build --locked -p dynprof-apps -p dynprof-analysis --bin dynprof --bin vgv
# The runner: no dependencies, so nothing in the product can break it.
build --locked --manifest-path "$here/Cargo.toml" --bin benchmark

if [[ "${1:-}" == "compare" ]]; then
    exec "$bin/benchmark" "$@"
fi

# The layer drivers, one by one, only when a traced run or the smoke test
# asks for them. Not --locked: a later change to the crates' dependency
# edges must cost a driver at most, never the build of all of them. A
# driver that fails to compile is removed and its first error kept beside
# the binaries, where the runner finds it and reports the layer's rows as
# unavailable.
want_layers=0
prev=""
for arg in "$@"; do
    if [[ "$arg" == "--quick" || ( "$prev" == "--trace" && "$arg" == "1" ) ]]; then
        want_layers=1
    fi
    prev="$arg"
done
if (( want_layers )); then
    for layer in apps core sim mpi omp image dpcl vt analysis obs; do
        log="$bin/layer_$layer.log"
        if cargo build --release --offline --quiet --manifest-path "$here/layers/Cargo.toml" \
            --bin "layer_$layer" 2>"$log"; then
            rm -f "$bin/layer_$layer.unavailable"
        else
            rm -f "$bin/layer_$layer"
            { grep -m1 '^error' "$log" || echo "build failed"; } >"$bin/layer_$layer.unavailable"
        fi
    done
fi

rustc_version="$(rustc -V 2>/dev/null || echo unknown)"
git_sha="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if [[ " $* " == *" --quick "* ]]; then
    # Both kinds of run, so that every code path and check is exercised.
    "$bin/benchmark" --bin-dir "$bin" --rustc "$rustc_version" --git-sha "$git_sha" "$@" --trace 0
    exec "$bin/benchmark" --bin-dir "$bin" --rustc "$rustc_version" --git-sha "$git_sha" "$@" --trace 1
fi
exec "$bin/benchmark" --bin-dir "$bin" --rustc "$rustc_version" --git-sha "$git_sha" "$@"
