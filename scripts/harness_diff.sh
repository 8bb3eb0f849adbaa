#!/usr/bin/env bash
# Harness-matrix diff against another revision: is this the same
# computation as REV?
#
#   scripts/harness_diff.sh REV [WORKDIR]
#
# Builds tools/harness_dump (Release) twice — against the sources of REV,
# extracted with `git archive`, and against the working tree — dumps the
# 96-run matrix at thread budgets 1 and 4 with each, and compares the
# dumps with cmp: REV against the working tree at each budget, and the
# working tree's budget 1 against its budget 4. Exits 0 only when all three
# match. No golden dump is stored: digests depend on the GEMM kernel tier,
# so both sides are dumped on the same host.
#
# WORKDIR keeps the builds, the dumps (rev-{1,4}.txt, tree-{1,4}.txt) and
# the runs' logs (*.log), for example to split a dump per cell afterwards;
# without it a temporary directory is used and removed on exit.
set -euo pipefail

rev=${1:?usage: scripts/harness_diff.sh REV [WORKDIR]}
root=$(git rev-parse --show-toplevel)
if [ $# -ge 2 ]; then
  work=$2
  mkdir -p "$work"
else
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
fi

rm -rf "$work/rev-src"
mkdir -p "$work/rev-src"
git -C "$root" archive "$rev" | tar -x -C "$work/rev-src"

gen=()
if command -v ninja > /dev/null; then gen=(-G Ninja); fi
for side in rev tree; do
  src=$work/rev-src
  if [ "$side" = tree ]; then src=$root; fi
  echo "building harness_dump against $side ($src)" >&2
  cmake -S "$root/tools" -B "$work/build-$side" "${gen[@]}" \
    -DCMAKE_BUILD_TYPE=Release -DFEDL_SRC="$src" > /dev/null
  cmake --build "$work/build-$side" -j "$(nproc)" --target harness_dump \
    > /dev/null
  for budget in 1 4; do
    "$work/build-$side/harness_dump" "$budget" > "$work/$side-$budget.txt" \
      2> "$work/$side-$budget.log"
  done
done

status=0
cmp "$work/rev-1.txt" "$work/tree-1.txt" || status=1
cmp "$work/rev-4.txt" "$work/tree-4.txt" || status=1
cmp "$work/tree-1.txt" "$work/tree-4.txt" || status=1
if [ "$status" = 0 ]; then
  echo "harness matrix identical to $rev at thread budgets 1 and 4" \
       "($(wc -l < "$work/tree-1.txt") lines)"
fi
exit "$status"
