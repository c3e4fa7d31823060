#!/usr/bin/env bash
# Apply each hand-written mutant of tests/mutants.txt to a scratch copy of
# the tree, run the Tier-1 tests there one at a time, and print which tests
# killed it.
#
# Usage: scripts/mutants.sh [mutant-list]
#   One mutant a line, four tab-separated fields: the file, a pattern (a
#   fixed string that must occur exactly once in it), its replacement, and
#   the test expected to kill it. '#' starts a comment line.
# Prints one block per mutant: its kill list (binary::test, and one
# `signal` line when a test binary died of a signal before it could
# report: which binary dies first varies from run to run), or SURVIVED.
# Exits 1 if a mutant survives or cannot be applied. The copy and its
# build directory live under $TMPDIR and are removed on exit; the first
# mutant pays a full debug build, the rest rebuild what they touch.
# Needs git, sed, grep and cargo.
set -euo pipefail
cd "$(dirname "$0")/.."

list=${1:-tests/mutants.txt}
work=$(mktemp -d "${TMPDIR:-/tmp}/dynprof-mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
tree="$work/tree"
mkdir -p "$tree"
# Only the listed paths that exist: a tracked file deleted in the working
# tree is still listed, and would fail the copy.
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' path; do
        if [[ -e $path ]]; then printf '%s\0' "$path"; fi
    done |
    xargs -0 cp --parents -t "$tree"
export CARGO_TARGET_DIR="$work/target"

# A fixed string as a sed pattern, and as a sed replacement.
sed_pattern() { printf '%s' "$1" | sed -e 's/[]\/$*.^[]/\\&/g'; }
sed_replacement() { printf '%s' "$1" | sed -e 's/[\/&]/\\&/g'; }

status=0
while IFS=$'\t' read -r file pattern replacement killer; do
    [[ -z $file || $file == \#* ]] && continue
    echo "== $file: '$pattern' -> '$replacement' (expected: $killer)"
    target="$tree/$file"
    if [[ ! -f $target ]] || [[ $(grep -cF -- "$pattern" "$target") != 1 ]]; then
        echo "   NOT APPLIED: the pattern must occur exactly once in $file"
        status=1
        continue
    fi
    cp "$target" "$work/original"
    sed -i "s/$(sed_pattern "$pattern")/$(sed_replacement "$replacement")/" "$target"
    # The Tier-1 tests, one at a time: a mutant that crashes a test binary
    # stops it at the first test that dies, after every test before it
    # has reported. `Running` and `Doc-tests` lines name the binary the
    # `test ... FAILED` and crash lines after them belong to.
    log="$work/log"
    (cd "$tree" && cargo test --no-fail-fast -- --test-threads=1 >"$log" 2>&1) || true
    killed=$(sed -n \
        -e 's/^ *Running .*\/\([^/]*\)-[0-9a-f]\{16\})$/@\1/p' \
        -e 's/^ *Doc-tests \(.*\)$/@doc \1/p' \
        -e 's/^test \(.*\) \.\.\. FAILED$/\1/p' \
        -e 's/^ *process didn.t exit successfully: .*(signal: .*/signal/p' \
        -e 's/^error: could not compile `\([^`]*\)`.*/compile error in \1/p' "$log" |
        sed -n -e '/^@/{h;d;}' -e '/^compile error/{p;d;}' -e '/^signal$/{p;d;}' \
            -e 'G;s/^\(.*\)\n@\(.*\)$/\2::\1/p' |
        sort -u)
    if [[ -n $killed ]]; then
        printf '%s\n' "$killed" | sed 's/^/   killed by /'
    else
        echo "   SURVIVED"
        status=1
    fi
    # A fresh copy (new mtime) so cargo rebuilds what the mutant touched.
    cp "$work/original" "$target"
done <"$list"
exit $status
