#!/usr/bin/env python3
"""Negative tests for scripts/validate_trace.py (ctest label: lint).

The validator is the last line of defense for the decision-trace schema: the
plotting and regret-analysis toolchain trusts whatever it accepts. This test
builds a minimal *valid* JSONL trace (and asserts the validator accepts it,
so a drifting schema cannot silently vacuous-pass the corruption cases),
then corrupts it one way at a time and asserts the validator exits nonzero
naming the violation:

  * a missing budget-ledger field (budget_spent dropped)
  * a non-monotonic epoch sequence (3, 1 after epochs must advance)
  * an unbalanced ledger (spent + remaining != total)
  * a broken determinism-digest chain (prev != previous digest)
  * an anomaly record naming an unknown monitor
  * a manifest with a wrong schema tag / an unexplained final digest
  * a virtual-clock event stream (--async runs) that runs backwards,
    mis-counts a flush, or leaks a field that must be null for its kind
"""

import argparse
import copy
import json
import subprocess
import sys
import tempfile


def epoch_event(epoch, spent):
    client = {
        "id": 0, "cost": 2.0, "data_size": 64, "tau_loc": 0.1,
        "tau_cm_est": 0.2, "x_frac": 1.0, "mu": 0.0, "eta_est": 0.5,
        "delta_est": 0.1, "selected": True, "eta_hat": 0.5,
        "delta_hat": 0.1, "latency_s": 0.3, "completed_iters": 3,
        "dropped": False,
    }
    return {
        "type": "epoch", "algorithm": "fedl", "epoch": epoch,
        "num_available": 1, "num_selected": 1, "iterations": 3,
        "rho": 0.5, "mu0": 0.1, "eta_max": 0.9, "latency_s": 0.3,
        "epoch_cost": 2.0, "budget_total": 100.0, "budget_spent": spent,
        "budget_remaining": 100.0 - spent, "train_loss_selected": 1.0,
        "train_loss_all": 1.1, "test_loss": 1.2, "test_accuracy": 0.5,
        "num_dropped": 0, "clients": [client],
    }


# digest_hex(kFnvOffsetBasis): what the first digest record's prev must be.
FNV_OFFSET_HEX = "cbf29ce484222325"


def digest_event(epoch, prev, digest):
    return {"type": "digest", "algorithm": "fedl", "epoch": epoch,
            "hash": "fnv1a64", "prev": prev, "digest": digest}


def anomaly_event(monitor):
    return {"type": "anomaly", "algorithm": "fedl", "epoch": 2,
            "monitor": monitor, "observed": 12.0, "limit": 10.0,
            "detail": "epoch cost 12 exceeds paced cap 10"}


def async_event(kind, vt, epoch, client=None, version=0, staleness=None,
                buffer=None, aggregated=None):
    return {"type": "event", "algorithm": "fedl", "kind": kind, "vt": vt,
            "epoch": epoch, "client": client, "version": version,
            "staleness": staleness, "buffer": buffer,
            "aggregated": aggregated}


def manifest_doc():
    return {"schema": "fedl-manifest-v1", "clean": True,
            "build_type": "Release", "profiling_compiled": True,
            "final_digest": "a" * 16, "runs_digested": 2,
            "fields": {"seed": "1", "gemm_kernel": "avx2"}}


def run_validator(python, validator, events, flag="--trace"):
    with tempfile.NamedTemporaryFile(
            mode="w", suffix=".jsonl", delete=False) as f:
        if flag == "--trace":
            for event in events:
                f.write(json.dumps(event) + "\n")
        else:
            json.dump(events, f)
        path = f.name
    proc = subprocess.run([python, validator, flag, path],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--validator", required=True,
                        help="path to scripts/validate_trace.py")
    parser.add_argument("--python", default=sys.executable)
    args = parser.parse_args()

    valid = [epoch_event(1, 2.0), epoch_event(2, 4.0), epoch_event(3, 6.0)]
    failures = []
    cases = 0

    def expect(name, events, want_rc, want_substr, flag="--trace"):
        nonlocal cases
        cases += 1
        before = len(failures)
        rc, out = run_validator(args.python, args.validator, events, flag)
        if want_rc == 0:
            if rc != 0:
                failures.append(f"{name}: expected acceptance, got rc={rc}: "
                                f"{out.strip()}")
        else:
            if rc == 0:
                failures.append(f"{name}: validator accepted corrupted trace")
            elif want_substr not in out:
                failures.append(f"{name}: exit was nonzero but the named "
                                f"violation {want_substr!r} is missing from: "
                                f"{out.strip()}")
        print(f"{'ok' if len(failures) == before else 'FAIL'} {name}: rc={rc}")

    # Baseline must pass, otherwise every corruption case is vacuous.
    expect("valid_trace_accepted", valid, 0, "")

    missing_ledger = copy.deepcopy(valid)
    del missing_ledger[1]["budget_spent"]
    expect("missing_ledger_field_rejected", missing_ledger, 1, "budget_spent")

    non_monotonic = [epoch_event(1, 2.0), epoch_event(3, 4.0),
                     epoch_event(2, 6.0)]
    expect("non_monotonic_epoch_rejected", non_monotonic, 1,
           "non-monotonic epoch")

    unbalanced = copy.deepcopy(valid)
    unbalanced[2]["budget_remaining"] = 90.0
    expect("unbalanced_ledger_rejected", unbalanced, 1, "does not balance")

    # Trial-boundary reset (grid traces concatenate runs): must stay legal.
    two_trials = [epoch_event(1, 2.0), epoch_event(2, 4.0),
                  epoch_event(1, 6.0), epoch_event(2, 8.0)]
    expect("trial_boundary_reset_accepted", two_trials, 0, "")

    # Determinism-sentinel records: a continuous chain passes, a record
    # whose prev does not match the previous digest is corruption.
    chained = [epoch_event(1, 2.0),
               digest_event(1, FNV_OFFSET_HEX, "1" * 16),
               epoch_event(2, 4.0),
               digest_event(2, "1" * 16, "2" * 16)]
    expect("digest_chain_accepted", chained, 0, "")

    broken = copy.deepcopy(chained)
    broken[3]["prev"] = "f" * 16
    expect("digest_chain_break_rejected", broken, 1, "digest chain broken")

    stuck = copy.deepcopy(chained)
    stuck[3]["digest"] = stuck[3]["prev"]
    expect("digest_chain_stall_rejected", stuck, 1, "did not advance")

    # Anomaly records: a well-formed one passes, an unknown monitor is
    # corruption (the monitor set is the validator's schema contract).
    with_anomaly = valid[:2] + [anomaly_event("budget_pacing")] + valid[2:]
    expect("anomaly_record_accepted", with_anomaly, 0, "")
    bad_monitor = valid[:2] + [anomaly_event("vibes")] + valid[2:]
    expect("unknown_monitor_rejected", bad_monitor, 1, "unknown monitor")

    # Run manifest: valid doc passes; wrong schema tag and an unexplained
    # nonzero final digest (no run recorded one) are rejected.
    expect("manifest_accepted", manifest_doc(), 0, "", flag="--manifest")
    bad_schema = manifest_doc()
    bad_schema["schema"] = "fedl-manifest-v0"
    expect("manifest_bad_schema_rejected", bad_schema, 1, "manifest schema",
           flag="--manifest")
    phantom_digest = manifest_doc()
    phantom_digest["runs_digested"] = 0
    expect("manifest_phantom_digest_rejected", phantom_digest, 1,
           "no run digested", flag="--manifest")

    # Virtual-clock event records (--async runs): a well-formed
    # dispatch/complete/flush stream interleaved with epoch events passes.
    async_ok = [
        epoch_event(1, 2.0),
        async_event("dispatch", 0.0, 2, client=0),
        async_event("dispatch", 0.0, 2, client=1),
        async_event("complete", 0.5, 2, client=0, version=0, staleness=0,
                    buffer=1),
        async_event("complete", 0.7, 2, client=1, version=0, staleness=0,
                    buffer=2),
        async_event("flush", 0.7, 2, version=1, staleness=0, buffer=0,
                    aggregated=2),
        epoch_event(2, 4.0),
    ]
    expect("async_events_accepted", async_ok, 0, "")

    # The virtual clock is monotone within a trial; only a dispatch at
    # vt == 0.0 (a new trial in a grid trace) may reset it.
    backwards = copy.deepcopy(async_ok)
    backwards[4]["vt"] = 0.3
    expect("async_vt_backwards_rejected", backwards, 1,
           "virtual clock ran backwards")

    # FedBuff flush accounting: aggregated must equal the completes that
    # arrived since the previous flush.
    shortflush = copy.deepcopy(async_ok)
    shortflush[5]["aggregated"] = 1
    expect("async_flush_miscount_rejected", shortflush, 1,
           "updates completed since the last flush")

    # Per-kind null contract: a dispatch has no staleness yet.
    leaky = copy.deepcopy(async_ok)
    leaky[1]["staleness"] = 0
    expect("async_dispatch_nonnull_rejected", leaky, 1, "has non-null")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{cases - len(failures)}/{cases} corruption cases behaved",
          file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
