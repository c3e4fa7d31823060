#!/usr/bin/env bash
# profile_pipeline.sh — sampled CPU profiles of the three session workloads,
# on a host with no perf: an LD_PRELOAD SIGPROF sampler (scripts/sprof.c)
# and an offline symboliser (scripts/sprof_sym.py).
#
# Produces timestamped artefacts under target/profiles/<ts>/ so optimisation
# rounds can be compared:
#
#   target/profiles/<ts>/meta.txt
#   target/profiles/<ts>/<workload>/raw/s.<pid>   one dump per run
#   target/profiles/<ts>/<workload>/self.txt      samples by innermost symbol
#   target/profiles/<ts>/<workload>/inclusive.txt samples by any frame's symbol
#
# Usage:
#   scripts/profile_pipeline.sh
#   WORKLOADS=deep RUNS=60 HZ=250 scripts/profile_pipeline.sh
#
# Environment:
#   WORKLOADS  Space-delimited: deep wide control (default: all three; the
#              benchmark's deep_umt98_full, wide_sweep3d_1152,
#              control_smg98_512 command lines)
#   RUNS       Sessions sampled per workload (default: 20; a session is
#              0.06-0.5 s, so at 250 Hz one run is 15-120 samples)
#   HZ         Sampling frequency (default: 250)
#   OUT_ROOT   Output root (default: target/profiles)
#   RUN_TS     Override the UTC run timestamp (default: now)
#
# Reading the output:
# - The profiled binary is built with frame pointers into its own target
#   directory (target/profiles/build), so inclusive.txt can walk 12 frames.
#   A simulated process runs on a coroutine stack: its unwind ends at
#   `dynprof_sim_co_entry`, and the engine's run loop above it is absent.
# - sprof_sym.py symbolises every dump against its own mappings (and applies
#   the PIE text bias, `.text` vaddr != file offset), so runs merge by symbol.
#   To merge or diff runs by raw *address*, ASLR must be off: the sessions run
#   under `setarch -R` when it is available.

set -euo pipefail

cd "$(dirname "$0")/.."

WORKLOADS="${WORKLOADS:-deep wide control}"
RUNS="${RUNS:-20}"
HZ="${HZ:-250}"
OUT_ROOT="${OUT_ROOT:-target/profiles}"
RUN_TS="${RUN_TS:-$(date -u +%Y%m%dT%H%M%SZ)}"

workload_args() {
    case "$1" in
        deep) echo "umt98 cpus=8 policy=full scale=1" ;;
        wide) echo "sweep3d cpus=1152 policy=dynamic" ;;
        control) echo "smg98 cpus=512 policy=dynamic" ;;
        *) echo "ERROR: unknown workload $1 (deep wide control)" >&2; return 1 ;;
    esac
}

for w in ${WORKLOADS}; do workload_args "${w}" >/dev/null; done
for tool in cargo gcc python3 nm readelf; do
    if ! command -v "${tool}" >/dev/null 2>&1; then
        echo "ERROR: ${tool} not found in PATH" >&2
        exit 1
    fi
done
NOASLR=()
if command -v setarch >/dev/null 2>&1 && setarch "$(uname -m)" -R true 2>/dev/null; then
    NOASLR=(setarch "$(uname -m)" -R)
fi

RUN_DIR="${OUT_ROOT}/${RUN_TS}"
BUILD_DIR="${OUT_ROOT}/build"
mkdir -p "${RUN_DIR}"

echo "== profile_pipeline ${RUN_TS} =="
echo "   workloads: ${WORKLOADS}  runs: ${RUNS}  hz: ${HZ}  aslr off: ${#NOASLR[@]}"
echo "   artefacts: ${RUN_DIR}/"

# One release build with frame pointers, apart from the everyday target
# directory so neither build invalidates the other.
CARGO_TARGET_DIR="${BUILD_DIR}" RUSTFLAGS="-C force-frame-pointers=yes" \
    cargo build --release --offline -p dynprof-apps --bin dynprof >"${RUN_DIR}/build.log" 2>&1
BIN="${BUILD_DIR}/release/dynprof"
gcc -O2 -shared -fPIC -o "${RUN_DIR}/sprof.so" scripts/sprof.c

{
    echo "run_ts=${RUN_TS}"
    echo "workloads=${WORKLOADS}"
    echo "runs=${RUNS}"
    echo "hz=${HZ}"
    echo "aslr_off=${#NOASLR[@]}"
    echo "rustc=$(rustc --version)"
    echo "host=$(uname -srm)"
    echo "nproc=$(nproc 2>/dev/null || echo '?')"
    echo "git=$(git rev-parse --short HEAD 2>/dev/null || echo 'no-git')"
} >"${RUN_DIR}/meta.txt"

SCRIPT="${RUN_DIR}/script.dp"
printf 'insert-file subset\nstart\nquit\n' >"${SCRIPT}"

for w in ${WORKLOADS}; do
    dir="${RUN_DIR}/${w}"
    mkdir -p "${dir}/raw"
    read -r -a args <<<"$(workload_args "${w}")"
    echo "-- ${w}: ${RUNS} x dynprof ${args[*]} --"
    for i in $(seq 1 "${RUNS}"); do
        "${NOASLR[@]}" env LD_PRELOAD="${RUN_DIR}/sprof.so" SPROF_OUT="${dir}/raw/s" \
            SPROF_HZ="${HZ}" SPROF_FRAMES=1 \
            "${BIN}" "${SCRIPT}" /dev/null /dev/null "${args[@]}" "seed=${i}" \
            "trace=${dir}/t.vgvs" 2>>"${dir}/stderr.log"
    done
    rm -f "${dir}/t.vgvs"
    python3 scripts/sprof_sym.py --self "${dir}/self.txt" \
        --inclusive "${dir}/inclusive.txt" "${dir}"/raw/s.*
    head -12 "${dir}/self.txt"
done

echo "== done: ${RUN_DIR}/ =="
