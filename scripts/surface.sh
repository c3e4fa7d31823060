#!/usr/bin/env bash
# List the workspace's library functions that only test executables link.
#
# The product is `dynprof`, `vgv`, the figure binaries (`fig7`, `fig8`,
# `fig9`, `figctl`, `tables`, `ablation`) and `dynlint`. A library
# function defined in some test executable but in none of those binaries
# is reachable only from tests. Linked is not executed, so the count is an
# upper bound on what the product does not reach. `::tests::` modules,
# test harnesses and trait impls are left out; closures count as the
# function they are in.
#
# Usage: scripts/surface.sh [-q]
#   Builds debug, then prints each test-only function under its crate,
#   a count per crate and the total. -q prints only the counts.
# Needs cargo, nm (binutils) and awk.
set -euo pipefail
cd "$(dirname "$0")/.."

quiet=0
[[ ${1:-} == -q ]] && quiet=1

product="dynprof vgv fig7 fig8 fig9 figctl tables ablation dynlint"
# The library crates, by the name their symbols carry.
libs=$(awk -F'"' 'FNR == 1 { seen = 0 } /^name = / && !seen { seen = 1; gsub("-", "_", $2); printf "%s%s", sep, $2; sep = "|" }' \
    Cargo.toml crates/*/Cargo.toml)
cargo build --workspace --bins --quiet
tests=$(cargo test --workspace --no-run 2>&1 | awk -F'[()]' '/Executable/ { print $2 }')

{
    for b in $product; do nm -C --defined-only "target/debug/$b"; done
    echo "@@tests"
    for t in $tests; do nm -C --defined-only "$t"; done
} | awk -v quiet="$quiet" -v libs="^($libs)::" '
    $0 == "@@tests" { in_tests = 1; next }
    $2 !~ /^[tTwW]$/ { next }
    {
        name = $0
        sub(/^[^ ]+ [^ ]+ /, "", name)
        if (match(name, /::h[0-9a-f]+$/) && RLENGTH == 19) name = substr(name, 1, RSTART - 1)
        while (sub(/::\{\{closure\}\}$/, "", name)) {}
        # The main of a test harness is not library code.
        if (name !~ libs || name ~ /::tests::/ || name ~ /^[a-z_]+::main$/) next
        if (!in_tests) product[name] = 1
        else if (!(name in product)) only[name] = 1
    }
    END {
        for (name in only) {
            krate = name
            sub(/::.*/, "", krate)
            sub(/^dynprof_/, "", krate)
            count[krate]++
            total++
            if (!quiet) print krate "\t" name | "sort"
        }
        close("sort")
        for (krate in count) print count[krate] "\t" krate | "sort -rn"
        close("sort -rn")
        print "test-only library functions: " total + 0
    }'
