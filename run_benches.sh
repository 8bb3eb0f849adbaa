#!/bin/bash
# Usage: ./run_benches.sh [BENCH ...]
#
# Runs every bench binary and collects output; used for bench_output.txt.
# Bench names (e.g. `./run_benches.sh fig8_scale_sweep`) restrict the run
# to those binaries under build/bench/, so one BENCH_*.json can be
# regenerated without rerunning everything.
# Also emits BENCH_micro_kernels.json (google-benchmark JSON),
# BENCH_scale.json (fig8 selection-layer scale sweep) and BENCH_async.json
# (abl_async event-driven vs lockstep speedup grid) so the perf trajectory
# stays machine-readable across PRs.
#
# Committed BENCH_*.json files are only comparable when built the same way:
# non-Release builds run the benches for smoke value but are REFUSED as JSON
# emitters. Every emitted JSON is stamped with hardware_threads and the
# build type so numbers are never compared across machines blindly. A bench
# that fails is reported and its JSON is not stamped; the script then exits
# 1.
cd "$(dirname "$0")"

ONLY=("$@")
for name in "${ONLY[@]}"; do
  if [ ! -x "build/bench/$name" ]; then
    echo "unknown or unbuilt bench: $name (no build/bench/$name)" >&2
    exit 2
  fi
done

# True when the named bench is part of this run.
selected() {
  [ ${#ONLY[@]} -eq 0 ] && return 0
  local name
  for name in "${ONLY[@]}"; do
    [ "$name" = "$1" ] && return 0
  done
  return 1
}

BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' build/CMakeCache.txt 2>/dev/null)
EMIT_JSON=0
if [ "$BUILD_TYPE" = "Release" ]; then
  EMIT_JSON=1
else
  echo "non-Release build (CMAKE_BUILD_TYPE='${BUILD_TYPE:-unknown}'):" \
       "refusing to emit BENCH_*.json" >&2
fi

# The GEMM kernel tier runtime dispatch resolved on this machine — recorded
# in every emitted JSON so committed numbers say which kernel produced them.
GEMM_KERNEL=unknown
if [ -x build/bench/gemm_kernel_probe ]; then
  GEMM_KERNEL=$(build/bench/gemm_kernel_probe 2>/dev/null || echo unknown)
fi

# Adds {"hardware_threads": N, "build_type": "...", "gemm_kernel": "..."}
# to an emitted JSON file (object or google-benchmark report alike) in
# place, plus the run manifest (obs/manifest.h) in $2 when given: the
# manifest the emitting bench itself wrote through --manifest-out (build
# type, thread budget, seeds, config hash, final determinism digest, clean
# exit), so committed numbers carry the provenance of the run that made
# them.
stamp_json() {
  local f="$1" mf="${2:-}"
  [ -f "$f" ] || return
  python3 - "$f" "$(nproc)" "$BUILD_TYPE" "$GEMM_KERNEL" "$mf" <<'PY'
import json, sys
path, hw, bt, gk, mf = (sys.argv[1], int(sys.argv[2]), sys.argv[3],
                        sys.argv[4], sys.argv[5])
with open(path) as fh:
    doc = json.load(fh)
if isinstance(doc, dict):
    doc["hardware_threads"] = hw
    doc["build_type"] = bt
    doc["gemm_kernel"] = gk
    if mf:
        try:
            with open(mf) as mh:
                doc["manifest"] = json.load(mh)
        except (OSError, ValueError) as e:
            print(f"manifest embedding skipped for {path}: {e}",
                  file=sys.stderr)
with open(path, "w") as fh:
    json.dump(doc, fh, indent=1)
    fh.write("\n")
PY
}

STATUS=0
# Runs bench $1 with the remaining arguments, appending its output to
# bench_output.txt; a failure is reported and recorded in STATUS.
run_bench() {
  local b="$1"
  shift
  if ! "$b" "$@" >> bench_output.txt 2>&1; then
    echo "$(basename "$b") failed; see bench_output.txt" >&2
    STATUS=1
    return 1
  fi
}

# Runs an ObsSession bench ($1) that writes the JSON report $2 through
# --json-out, with its own manifest, and stamps the report.
emit_json() {
  local b="$1" out="$2" mf
  mf=$(mktemp)
  run_bench "$b" --json-out="$out" --manifest-out="$mf" &&
    stamp_json "$out" "$mf"
  rm -f "$mf"
}

: > bench_output.txt
for b in build/bench/*; do
  if [ -f "$b" ] && [ -x "$b" ] && selected "$(basename "$b")"; then
    echo "===== $(basename "$b") =====" >> bench_output.txt
    case "$(basename "$b")" in
      micro_kernels)
        # google-benchmark parses this binary's flags and it runs no
        # ObsSession, so it writes no manifest: its JSON keeps the scalar
        # stamps and google-benchmark's own "context" block.
        if [ "$EMIT_JSON" = "1" ]; then
          run_bench "$b" --benchmark_out=BENCH_micro_kernels.json \
               --benchmark_out_format=json &&
            stamp_json BENCH_micro_kernels.json
        else
          run_bench "$b"
        fi
        ;;
      fig8_scale_sweep)
        if [ "$EMIT_JSON" = "1" ]; then
          emit_json "$b" BENCH_scale.json
        else
          run_bench "$b"
        fi
        ;;
      abl_async)
        # Event-driven vs lockstep at equal budget (DESIGN.md §12); the
        # speedup cells are the PR's headline number, so keep them stamped.
        if [ "$EMIT_JSON" = "1" ]; then
          emit_json "$b" BENCH_async.json
        else
          run_bench "$b"
        fi
        ;;
      *)
        run_bench "$b"
        ;;
    esac
    echo "" >> bench_output.txt
  fi
done
echo "ALL_BENCHES_DONE" >> bench_output.txt
exit "$STATUS"
