#!/usr/bin/env bash
# Bit-identity check of a change against a git ref: runs the --deterministic
# command set on the ref (a `git archive` of it) and on this checkout's
# working tree, for seeds 42 and 7 under PYTHONWARNINGS=error, and compares
# the two output trees with `diff -r`.  Exits 0 when they are identical.
#
# The command set: simulate; estimate of all five scenarios at
# --trials 3000 --particles 3000; estimate mc-ekf --threads 2; and
# pdf-marginal --at 1,5 of pf and mc-ekf.
#
# Usage: tools/compare_outputs.sh <ref> [work-dir]
# work-dir (default: a new temporary directory) receives the ref's tree and
# both output trees; it is kept, so a difference can be inspected.
set -euo pipefail

ref=${1:?usage: tools/compare_outputs.sh <ref> [work-dir]}
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=${2:-$(mktemp -d)}
python=${PYTHON:-python3}

mkdir -p "$work/ref"
git -C "$repo" archive "$ref" | tar -x -C "$work/ref"

# run_set <tree> <out>: the command set on the sources of <tree>
run_set() {
    local tree=$1 out=$2 seed scenario
    gumkf() {
        PYTHONPATH="$tree/src" PYTHONWARNINGS=error PYTHONDONTWRITEBYTECODE=1 \
            "$python" -m gumkf.cli "$@" --seed "$seed" --deterministic
    }
    for seed in 42 7; do
        gumkf simulate --out "$out/$seed/simulate"
        for scenario in lkf-known mc-lkf-uncertain ekf-augmented mc-ekf pf; do
            gumkf estimate "$scenario" --trials 3000 --particles 3000 \
                --out "$out/$seed/estimate-$scenario"
        done
        gumkf estimate mc-ekf --trials 3000 --threads 2 --out "$out/$seed/estimate-mc-ekf-threads2"
        for scenario in pf mc-ekf; do
            gumkf pdf-marginal --scenario "$scenario" --at 1,5 --trials 3000 --particles 3000 \
                --out "$out/$seed/pdf-marginal-$scenario"
        done
    done
}

run_set "$work/ref" "$work/out-ref"
run_set "$repo" "$work/out-tree"
diff -r "$work/out-ref" "$work/out-tree"
echo "identical: $ref and the working tree ($work)"
