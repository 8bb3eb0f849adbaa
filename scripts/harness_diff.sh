#!/usr/bin/env bash
# Harness-matrix diff against another revision: is this the same
# computation as REV?
#
#   scripts/harness_diff.sh REV [WORKDIR]
#
# Builds tools/harness_dump (Release) twice — REV's own, against the
# sources of REV extracted with `git archive`, and the working tree's,
# against the working tree — dumps the 96-run matrix at thread budgets 1
# and 4 with each, and compares the dumps with cmp: REV against the
# working tree at each budget, and the working tree's budget 1 against its
# budget 4. Exits 0 only when all three match; a comparison that fails
# also names each cell (its `== …` header) whose lines differ, with how
# many differ. No golden dump is stored: digests depend on the GEMM kernel
# tier, so both sides are dumped on the same host. A REV without
# tools/harness_dump.cpp has no dumper of its own and cannot be compared;
# the script then exits 1 before building anything.
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
if [ ! -f "$work/rev-src/tools/harness_dump.cpp" ]; then
  echo "harness_diff: $rev predates tools/harness_dump; cannot compare" >&2
  exit 1
fi

gen=()
if command -v ninja > /dev/null; then gen=(-G Ninja); fi
for side in rev tree; do
  src=$work/rev-src
  if [ "$side" = tree ]; then src=$root; fi
  # Each side builds its own dumper, which speaks its tree's harness API
  # (how a run is asked to trace, for one).
  echo "building harness_dump against $side ($src)" >&2
  cmake -S "$src/tools" -B "$work/build-$side" "${gen[@]}" \
    -DCMAKE_BUILD_TYPE=Release -DFEDL_SRC="$src" > /dev/null
  cmake --build "$work/build-$side" -j "$(nproc)" --target harness_dump \
    > /dev/null
  for budget in 1 4; do
    "$work/build-$side/harness_dump" "$budget" > "$work/$side-$budget.txt" \
      2> "$work/$side-$budget.log"
  done
done

# cmp two dumps (names under $work without .txt); when they differ, print
# the `== …` header of each cell whose lines differ and how many differ.
compare() {
  if cmp "$work/$1.txt" "$work/$2.txt"; then return 0; fi
  echo "cells that differ between $1 and $2:"
  awk '
    FNR == 1 { file++; cell = "" }
    /^== / { cell = $0; if (!(cell in known)) { known[cell] = 1; order[++n] = cell } }
    file == 1 { a[cell, ++na[cell]] = $0; next }
    { b[cell, ++nb[cell]] = $0 }
    END {
      for (i = 1; i <= n; ++i) {
        c = order[i]
        m = na[c] > nb[c] ? na[c] : nb[c]
        d = 0
        for (j = 1; j <= m; ++j)
          if (!((c, j) in a) || !((c, j) in b) || a[c, j] != b[c, j]) ++d
        if (d > 0) printf "  %s: %d of %d lines differ\n", c, d, m
      }
    }' "$work/$1.txt" "$work/$2.txt"
  return 1
}

status=0
compare rev-1 tree-1 || status=1
compare rev-4 tree-4 || status=1
compare tree-1 tree-4 || status=1
if [ "$status" = 0 ]; then
  echo "harness matrix identical to $rev at thread budgets 1 and 4" \
       "($(wc -l < "$work/tree-1.txt") lines)"
fi
exit "$status"
