#!/usr/bin/env python3
"""Validate the observability artifacts the fedl binaries emit.

Checks any subset of the artifact kinds (stdlib only, no deps):

  --trace     trace.jsonl    per-epoch JSONL decision telemetry plus the
                             optional "digest" (determinism sentinel, chain
                             continuity checked), "anomaly" (invariant
                             monitor) and "event" (virtual-clock dispatch/
                             complete/drop/flush, --async runs) records
                             (harness/experiment.cpp schema)
  --metrics   metrics.json   metrics-registry snapshot (obs/metrics.h shape)
  --profile   profile.json   Chrome-trace / Perfetto timeline (obs/profile.h)
  --manifest  manifest.json  run manifest (obs/manifest.h)

Exits 0 when every provided artifact is well formed, 1 with a message
otherwise. Wired into ctest as `obs_artifacts` (tests/CMakeLists.txt) so a
schema drift between the C++ emitters and this validator fails the suite.
"""

import argparse
import json
import math
import re
import sys

EPOCH_KEYS = {
    "type", "algorithm", "epoch", "num_available", "num_selected",
    "iterations", "rho", "mu0", "eta_max", "latency_s", "epoch_cost",
    "budget_total", "budget_spent", "budget_remaining",
    "train_loss_selected", "train_loss_all", "test_loss", "test_accuracy",
    "num_dropped", "clients",
}

CLIENT_KEYS = {
    "id", "cost", "data_size", "tau_loc", "tau_cm_est", "x_frac", "mu",
    "eta_est", "delta_est", "selected", "eta_hat", "delta_hat", "latency_s",
    "completed_iters", "dropped",
}

DIGEST_KEYS = {"type", "algorithm", "epoch", "hash", "prev", "digest"}

# Virtual-clock records of the event-driven engine (fl/event_engine.h).
EVENT_KEYS = {
    "type", "algorithm", "kind", "vt", "epoch", "client", "version",
    "staleness", "buffer", "aggregated",
}

EVENT_KINDS = {"dispatch", "complete", "drop", "flush"}

# Which nullable fields must be null / non-null per event kind (the writer's
# contract in harness/experiment.cpp): staleness exists once an update
# arrives, buffer occupancy only after dispatch, aggregated only on flushes,
# and a flush has no single client.
EVENT_NULL_FIELDS = {
    "dispatch": {"staleness", "buffer", "aggregated"},
    "complete": {"aggregated"},
    "drop": {"staleness", "aggregated"},
    "flush": {"client"},
}

ANOMALY_KEYS = {
    "type", "algorithm", "epoch", "monitor", "observed", "limit", "detail",
}

MONITORS = {
    "regret_envelope", "budget_pacing", "estimator_drift", "dropout_rate",
}

HEX64_RE = re.compile(r"^[0-9a-f]{16}$")

# digest_hex(kFnvOffsetBasis): every digest chain starts here.
FNV_OFFSET_HEX = "cbf29ce484222325"


class ValidationError(Exception):
    pass


def fail(where, msg):
    raise ValidationError(f"{where}: {msg}")


def check_number(where, name, v, allow_null=False):
    if v is None:
        if allow_null:
            return
        fail(where, f"{name} is null")
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        fail(where, f"{name} is not a number: {v!r}")
    if isinstance(v, float) and (math.isnan(v) or math.isinf(v)):
        fail(where, f"{name} is not finite: {v!r}")


def validate_digest_event(where, event, last_digest, last_epoch):
    """One determinism-sentinel record; returns the new chain tip."""
    if event.keys() != DIGEST_KEYS:
        fail(where, f"digest key set mismatch: missing "
                    f"{sorted(DIGEST_KEYS - event.keys())}, extra "
                    f"{sorted(event.keys() - DIGEST_KEYS)}")
    if event["hash"] != "fnv1a64":
        fail(where, f"unknown digest hash {event['hash']!r}")
    for key in ("prev", "digest"):
        if not isinstance(event[key], str) or not HEX64_RE.match(event[key]):
            fail(where, f"{key} is not 16 lowercase hex chars: "
                        f"{event[key]!r}")
    # Chain continuity: each record either starts a new run's chain at the
    # FNV offset basis or continues from the previous record's digest
    # (runs commit contiguously, so one tip suffices for the whole file).
    if event["prev"] != FNV_OFFSET_HEX and event["prev"] != last_digest:
        fail(where, f"digest chain broken: prev={event['prev']} but "
                    f"previous digest was {last_digest}")
    # The sentinel always folds the epoch record in, so the chain advances.
    if event["digest"] == event["prev"]:
        fail(where, "digest chain did not advance")
    if last_epoch is not None and event["epoch"] != last_epoch:
        fail(where, f"digest epoch {event['epoch']} does not match the "
                    f"preceding epoch event {last_epoch}")
    return event["digest"]


def validate_async_event(where, event, state):
    """One virtual-clock event record; mutates the per-file `state` dict
    (last_vt, completes_since_flush). Event records never advance the
    epoch-monotonicity state — cohorts resolve out of dispatch order, and
    the flush record carries the *latest* dispatch epoch."""
    if event.keys() != EVENT_KEYS:
        fail(where, f"event key set mismatch: missing "
                    f"{sorted(EVENT_KEYS - event.keys())}, extra "
                    f"{sorted(event.keys() - EVENT_KEYS)}")
    kind = event["kind"]
    if kind not in EVENT_KINDS:
        fail(where, f"unknown event kind {kind!r}")
    check_number(where, "vt", event["vt"])
    vt = event["vt"]
    if vt < 0:
        fail(where, f"negative virtual time {vt}")
    nulls = EVENT_NULL_FIELDS[kind]
    for key in ("client", "staleness", "buffer", "aggregated"):
        if key in nulls:
            if event[key] is not None:
                fail(where, f"{kind} event has non-null {key}="
                            f"{event[key]!r}")
        else:
            if not isinstance(event[key], int) or isinstance(event[key], bool) \
                    or event[key] < 0:
                fail(where, f"{kind} event {key} is not a non-negative "
                            f"integer: {event[key]!r}")
    for key in ("epoch", "version"):
        if not isinstance(event[key], int) or event[key] < 0:
            fail(where, f"{key} is not a non-negative integer: "
                        f"{event[key]!r}")
    # The virtual clock is monotone within a trial. A dispatch at vt 0 is
    # how every trial's clock starts, so it is the only place the clock may
    # jump backwards (grid traces commit several runs into one file).
    if kind == "dispatch" and vt == 0.0:
        state["last_vt"] = 0.0
        state["completes_since_flush"] = 0
    else:
        last_vt = state.get("last_vt")
        if last_vt is not None and vt < last_vt:
            fail(where, f"virtual clock ran backwards: {vt} after {last_vt}")
        state["last_vt"] = vt
    if kind == "complete":
        state["completes_since_flush"] = \
            state.get("completes_since_flush", 0) + 1
    elif kind == "flush":
        expect = state.get("completes_since_flush", 0)
        if event["aggregated"] != expect:
            fail(where, f"flush aggregated={event['aggregated']} but "
                        f"{expect} updates completed since the last flush")
        if event["aggregated"] == 0:
            fail(where, "flush aggregated nothing")
        if event["buffer"] != 0:
            fail(where, f"flush left buffer occupancy {event['buffer']}")
        state["completes_since_flush"] = 0


def validate_anomaly_event(where, event):
    if event.keys() != ANOMALY_KEYS:
        fail(where, f"anomaly key set mismatch: missing "
                    f"{sorted(ANOMALY_KEYS - event.keys())}, extra "
                    f"{sorted(event.keys() - ANOMALY_KEYS)}")
    if event["monitor"] not in MONITORS:
        fail(where, f"unknown monitor {event['monitor']!r}")
    check_number(where, "epoch", event["epoch"])
    # Non-finite observed/limit serialize as null (JsonWriter convention).
    for key in ("observed", "limit"):
        check_number(where, key, event[key], allow_null=True)
    if not isinstance(event["detail"], str) or not event["detail"]:
        fail(where, "anomaly detail missing or empty")


def validate_trace(path):
    num_events = 0
    num_digests = 0
    num_anomalies = 0
    num_async = 0
    first_epoch = None
    last_epoch = None
    last_digest = None
    async_state = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                event = json.loads(line)
            except json.JSONDecodeError as e:
                fail(where, f"invalid JSON: {e}")
            if not isinstance(event, dict):
                fail(where, "event is not an object")
            etype = event.get("type")
            if etype == "digest":
                last_digest = validate_digest_event(where, event, last_digest,
                                                    last_epoch)
                num_digests += 1
                continue
            if etype == "anomaly":
                validate_anomaly_event(where, event)
                num_anomalies += 1
                continue
            if etype == "event":
                validate_async_event(where, event, async_state)
                num_async += 1
                continue
            if etype != "epoch":
                fail(where, f"unknown event type {etype!r}")
            missing = EPOCH_KEYS - event.keys()
            if missing:
                fail(where, f"missing keys: {sorted(missing)}")
            extra = event.keys() - EPOCH_KEYS
            if extra:
                fail(where, f"unexpected keys: {sorted(extra)}")
            for key in ("eta_max", "latency_s", "epoch_cost", "budget_total",
                        "budget_spent", "budget_remaining", "test_accuracy"):
                check_number(where, key, event[key])
            # Epochs must advance strictly within a run. A reset back to the
            # very first epoch value is a trial boundary (grid traces commit
            # several runs into one file); anything else is corruption.
            check_number(where, "epoch", event["epoch"])
            epoch = event["epoch"]
            if first_epoch is None:
                first_epoch = epoch
            elif not (epoch > last_epoch or epoch == first_epoch):
                fail(where, f"non-monotonic epoch: {epoch} after {last_epoch}")
            last_epoch = epoch
            for key in ("rho", "mu0"):
                check_number(where, key, event[key], allow_null=True)
            clients = event["clients"]
            if not isinstance(clients, list):
                fail(where, "clients is not an array")
            if len(clients) != event["num_available"]:
                fail(where, f"num_available={event['num_available']} but "
                            f"{len(clients)} client records")
            selected = 0
            for i, c in enumerate(clients):
                cwhere = f"{where} client[{i}]"
                if not isinstance(c, dict):
                    fail(cwhere, "not an object")
                if c.keys() != CLIENT_KEYS:
                    fail(cwhere, f"key set mismatch: missing "
                                 f"{sorted(CLIENT_KEYS - c.keys())}, extra "
                                 f"{sorted(c.keys() - CLIENT_KEYS)}")
                check_number(cwhere, "cost", c["cost"])
                check_number(cwhere, "tau_loc", c["tau_loc"])
                check_number(cwhere, "tau_cm_est", c["tau_cm_est"])
                if not isinstance(c["selected"], bool):
                    fail(cwhere, "selected is not a bool")
                if c["selected"]:
                    selected += 1
                    # realized outcomes must be present for selected clients
                    for key in ("eta_hat", "latency_s", "completed_iters"):
                        if c[key] is None:
                            fail(cwhere, f"selected client has null {key}")
                else:
                    for key in ("eta_hat", "delta_hat", "latency_s",
                                "completed_iters"):
                        if c[key] is not None:
                            fail(cwhere, f"unselected client has {key}="
                                         f"{c[key]!r}")
            if selected != event["num_selected"]:
                fail(where, f"num_selected={event['num_selected']} but "
                            f"{selected} clients flagged selected")
            spent_plus_rest = event["budget_spent"] + event["budget_remaining"]
            if abs(spent_plus_rest - event["budget_total"]) > 1e-6:
                fail(where, "budget ledger does not balance: "
                            f"{event['budget_spent']} + "
                            f"{event['budget_remaining']} != "
                            f"{event['budget_total']}")
            num_events += 1
    if num_events == 0:
        fail(path, "no epoch events")
    extras = []
    if num_digests:
        extras.append(f"{num_digests} digest records")
    if num_anomalies:
        extras.append(f"{num_anomalies} anomalies")
    if num_async:
        extras.append(f"{num_async} virtual-clock events")
    return ", ".join([f"{num_events} epoch events"] + extras)


def validate_metrics(path):
    with open(path, encoding="utf-8") as f:
        snap = json.load(f)
    for section in ("counters", "gauges", "histograms"):
        if section not in snap or not isinstance(snap[section], dict):
            fail(path, f"missing or non-object section {section!r}")
    for name, v in snap["counters"].items():
        if not isinstance(v, int) or v < 0:
            fail(path, f"counter {name}: not a non-negative integer: {v!r}")
    for name, v in snap["gauges"].items():
        check_number(path, f"gauge {name}", v, allow_null=True)
    for name, h in snap["histograms"].items():
        where = f"{path} histogram {name}"
        bounds = h.get("bounds")
        counts = h.get("counts")
        if not isinstance(bounds, list) or not bounds:
            fail(where, "bounds missing or empty")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            fail(where, f"bounds not strictly ascending: {bounds}")
        if not isinstance(counts, list) or len(counts) != len(bounds) + 1:
            fail(where, f"expected {len(bounds) + 1} counts, got {counts!r}")
        if any(not isinstance(c, int) or c < 0 for c in counts):
            fail(where, f"counts must be non-negative integers: {counts}")
        if sum(counts) != h.get("total"):
            fail(where, f"total={h.get('total')} != sum(counts)={sum(counts)}")
        check_number(where, "sum", h.get("sum"))
    n = sum(len(snap[s]) for s in ("counters", "gauges", "histograms"))
    if n == 0:
        fail(path, "snapshot is empty")
    return f"{n} metrics"


def validate_profile(path):
    with open(path, encoding="utf-8") as f:
        trace = json.load(f)
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        fail(path, "traceEvents missing or not an array")
    spans = 0
    for i, ev in enumerate(events):
        where = f"{path} traceEvents[{i}]"
        ph = ev.get("ph")
        if ph not in ("X", "M"):
            fail(where, f"unexpected phase {ph!r}")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            fail(where, "missing name")
        if ph == "X":
            spans += 1
            for key in ("ts", "dur"):
                check_number(where, key, ev.get(key))
                if ev[key] < 0:
                    fail(where, f"negative {key}: {ev[key]}")
            for key in ("pid", "tid"):
                if not isinstance(ev.get(key), int):
                    fail(where, f"missing integer {key}")
    if spans == 0:
        fail(path, "no complete ('X') span events")
    return f"{spans} spans"


def validate_manifest(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "fedl-manifest-v1":
        fail(path, f"unknown manifest schema {doc.get('schema')!r}")
    if not isinstance(doc.get("clean"), bool):
        fail(path, "clean flag missing or not a bool")
    if not isinstance(doc.get("build_type"), str):
        fail(path, "build_type missing")
    if not isinstance(doc.get("profiling_compiled"), bool):
        fail(path, "profiling_compiled missing or not a bool")
    digest = doc.get("final_digest")
    if not isinstance(digest, str) or not HEX64_RE.match(digest):
        fail(path, f"final_digest is not 16 lowercase hex chars: {digest!r}")
    runs = doc.get("runs_digested")
    if not isinstance(runs, int) or runs < 0:
        fail(path, f"runs_digested not a non-negative integer: {runs!r}")
    if runs == 0 and digest != "0" * 16:
        fail(path, f"no run digested but final_digest is {digest!r}")
    fields = doc.get("fields")
    if not isinstance(fields, dict):
        fail(path, "fields missing or not an object")
    state = "clean" if doc["clean"] else "DIRTY"
    return f"{state}, {len(fields)} fields, {runs} runs digested"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", help="per-epoch JSONL decision trace")
    parser.add_argument("--metrics", help="metrics snapshot JSON")
    parser.add_argument("--profile", help="Chrome-trace profile JSON")
    parser.add_argument("--manifest", help="run manifest JSON")
    args = parser.parse_args()
    jobs = [
        (args.trace, validate_trace),
        (args.metrics, validate_metrics),
        (args.profile, validate_profile),
        (args.manifest, validate_manifest),
    ]
    if not any(path for path, _ in jobs):
        parser.error("nothing to validate; pass --trace/--metrics/--profile/"
                     "--manifest")
    try:
        for path, validate in jobs:
            if path:
                print(f"OK {path}: {validate(path)}")
    except ValidationError as e:
        print(f"FAIL {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"FAIL {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
