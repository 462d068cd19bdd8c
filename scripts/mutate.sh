#!/usr/bin/env bash
# Mutation catalogue: check that the tests would catch each catalogued bug.
#
#   scripts/mutate.sh [scripts/mutants/NN-name.patch ...]   (default: all)
#
# Every `scripts/mutants/NN-name.patch` is a unified diff against the tree,
# headed by `#` lines that say what the mutant breaks and name the tests that
# must fail, one `cargo test` argument list per line:
#
#   # tests: -p mhh-pubsub --lib repair::tests
#
# The script exports the committed tree (`git archive HEAD`, so uncommitted
# edits are not measured and the repository itself is never touched) into a
# temporary directory with its own CARGO_TARGET_DIR, then for each patch:
# applies it, runs its tests, prints `killed` (a test failed or ran past
# 600 s) or `survived`, and reverts it. A patch that does not apply or
# build prints `broken`. Exit status 1 when any mutant survived or broke.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
patches=("$@")
if [ ${#patches[@]} -eq 0 ]; then
    patches=("$root"/scripts/mutants/*.patch)
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/tree"
git -C "$root" archive HEAD | tar -x -C "$work/tree"
export CARGO_TARGET_DIR="$work/target"

status=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    patch=$(realpath "$patch")
    if ! git -C "$work/tree" apply "$patch" 2>/dev/null; then
        echo "$name: broken (does not apply)"
        status=1
        continue
    fi
    verdict=survived
    while read -r args; do
        # shellcheck disable=SC2086 # the header line is an argument list
        if ! (cd "$work/tree" && cargo test -q --offline $args --no-run) >/dev/null 2>&1; then
            verdict="broken (does not build)"
            break
        fi
        # SIGKILL reaches the whole process group: cargo and the test binary.
        # shellcheck disable=SC2086
        if ! (cd "$work/tree" && timeout -s KILL 600 cargo test -q --offline $args) \
            >/dev/null 2>&1; then
            verdict=killed
            break
        fi
    done < <(sed -n 's/^# tests: //p' "$patch")
    git -C "$work/tree" apply -R "$patch"
    echo "$name: $verdict"
    [ "$verdict" = killed ] || status=1
done
exit $status
