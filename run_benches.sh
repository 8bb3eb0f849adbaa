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
# build type so numbers are never compared across machines blindly.
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

# Run manifest (obs/manifest.h): one tiny seeded quickstart run emits
# manifest.json — build type, resolved GEMM kernel tier, thread budget,
# seed, config hash and the run's final determinism digest. stamp_json
# embeds it into every emitted BENCH_*.json so committed numbers carry
# their full provenance, not just the three scalar stamps.
MANIFEST_FILE=""
if [ "$EMIT_JSON" = "1" ] && [ -x build/examples/quickstart ]; then
  MANIFEST_FILE=$(mktemp)
  if ! build/examples/quickstart --clients 6 --epochs 3 --samples 200 \
       --seed 1 --digest --manifest-out="$MANIFEST_FILE" > /dev/null 2>&1; then
    rm -f "$MANIFEST_FILE"
    MANIFEST_FILE=""
    echo "manifest embedding skipped: quickstart manifest run failed" >&2
  fi
fi

# Adds {"hardware_threads": N, "build_type": "...", "gemm_kernel": "..."}
# plus the run manifest (when available) to an emitted JSON file (object or
# google-benchmark report alike) in place.
stamp_json() {
  local f="$1"
  [ -f "$f" ] || return
  python3 - "$f" "$(nproc)" "$BUILD_TYPE" "$GEMM_KERNEL" "$MANIFEST_FILE" <<'PY'
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

: > bench_output.txt
for b in build/bench/*; do
  if [ -f "$b" ] && [ -x "$b" ] && selected "$(basename "$b")"; then
    echo "===== $(basename "$b") =====" >> bench_output.txt
    case "$(basename "$b")" in
      micro_kernels)
        if [ "$EMIT_JSON" = "1" ]; then
          "$b" --benchmark_out=BENCH_micro_kernels.json \
               --benchmark_out_format=json >> bench_output.txt 2>&1
          stamp_json BENCH_micro_kernels.json
        else
          "$b" >> bench_output.txt 2>&1
        fi
        ;;
      fig8_scale_sweep)
        if [ "$EMIT_JSON" = "1" ]; then
          "$b" --json-out=BENCH_scale.json >> bench_output.txt 2>&1
          stamp_json BENCH_scale.json
        else
          "$b" >> bench_output.txt 2>&1
        fi
        ;;
      abl_async)
        # Event-driven vs lockstep at equal budget (DESIGN.md §12); the
        # speedup cells are the PR's headline number, so keep them stamped.
        if [ "$EMIT_JSON" = "1" ]; then
          "$b" --json-out=BENCH_async.json >> bench_output.txt 2>&1
          stamp_json BENCH_async.json
        else
          "$b" >> bench_output.txt 2>&1
        fi
        ;;
      *)
        "$b" >> bench_output.txt 2>&1
        ;;
    esac
    echo "" >> bench_output.txt
  fi
done
echo "ALL_BENCHES_DONE" >> bench_output.txt
[ -n "$MANIFEST_FILE" ] && rm -f "$MANIFEST_FILE"
