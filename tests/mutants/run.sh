#!/usr/bin/env bash
# Runs the committed mutants. Each `tests/mutants/*.patch` (or each patch
# named on the command line) is applied with `git apply`; every `Kill:`
# command in its header must then fail and every `Pass:` command pass;
# `git checkout -- .` restores the tree before the next patch. A patch
# that no longer applies fails, and so does one whose mutant no longer
# builds: each `Kill:` command is first built with `--no-run`, so a
# compile error never counts as a kill. The restore would discard local
# edits, so it refuses a tree with uncommitted changes. From the
# repository root:
#
#     tests/mutants/run.sh                                  # every mutant
#     tests/mutants/run.sh tests/mutants/double_credit.patch
set -u
cd "$(git rev-parse --show-toplevel)" || exit 2
if ! git diff --quiet HEAD --; then
    echo "run.sh: uncommitted changes; run the mutants on a clean checkout" >&2
    exit 2
fi
if [ $# -eq 0 ]; then
    set -- tests/mutants/*.patch
fi

# The header's `KEY: command` lines; `git apply` reads from the first
# `diff --git` on, so the header is everything before it.
header() { sed -n "/^diff --git /q; s/^$1: //p" "$2"; }

failed=()
for patch in "$@"; do
    echo "== $patch"
    if ! git apply "$patch"; then
        failed+=("$patch: does not apply")
        continue
    fi
    while IFS= read -r cmd; do
        if ! bash -c "${cmd%% -- *} --no-run" </dev/null; then
            failed+=("$patch: the mutant does not build for: $cmd")
        elif bash -c "$cmd" </dev/null; then
            failed+=("$patch: survived: $cmd")
        else
            echo "-- killed: $cmd"
        fi
    done < <(header Kill "$patch")
    while IFS= read -r cmd; do
        if ! bash -c "$cmd" </dev/null; then
            failed+=("$patch: failed: $cmd")
        fi
    done < <(header Pass "$patch")
    git checkout -- .
done

if [ ${#failed[@]} -gt 0 ]; then
    printf 'FAIL %s\n' "${failed[@]}"
    exit 1
fi
echo "every mutant killed ($# patches)"
