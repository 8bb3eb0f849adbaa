#!/usr/bin/env python3
"""FedL benchmark: build the driver, run one seeded workload, check it, report.

    python3 perfbench/run.py --workload lockstep_fmnist --seed 1 \
        --seconds 15 --trace 0

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset. Every workload run and
every traced run is a process of its own (see driver.cpp).

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 reports the per-layer metrics: an untraced run, a traced run and
a thread-budget-1 run of the same seed. Either way every run is checked
(budget, selection, finite outcomes, termination, hard anomalies, and the
digest chain against a thread-budget-1 reference), failed epochs count in
"failed", and the last line of stdout is one JSON object.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREADS = 4          # thread budget of the measured runs
# setup_s is the median of cold set-ups, one per fresh process: users pay the
# cold one, and repeated set-ups in one process run at the allocator's whim.
SETUP_PROCESSES = 9
# Every driver process of one invocation ends within this many seconds of
# the build finishing (the contract allows 180 per invocation).
RUN_BUDGET_S = 170
TERMINATION_REASONS = {"budget_exhausted", "infeasible_floor",
                       "empty_decisions", "max_epochs"}
MIB = 1024.0 * 1024.0

# Per workload: the reference horizon (0 = the full run; event mode needs the
# whole horizon because truncating it changes the final drain) and the test
# accuracy whose simulated arrival time is sim_tta_s.
WORKLOADS = {
    "lockstep_fmnist": {"reference_epochs": 5, "target_accuracy": 0.55},
    "event_fmnist_quant8": {"reference_epochs": 0, "target_accuracy": 0.5},
    "select_1m": {"reference_epochs": 100, "target_accuracy": None},
}

# Gated end-to-end metrics: the ones that stay inside their bound over ten
# seeds on a shared 4-core host. Cost per unit of work, in wall or CPU time,
# swung by up to a third there between runs minutes apart, so it is reported
# (the "user" line, harness.* per-layer metrics) but not gated; see README.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]


class BenchError(Exception):
    """The benchmark could not produce a result (build or driver failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build_driver():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no FedL sources under %s/src" % ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(THREADS)], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench_driver")


# ---------------------------------------------------------------------------
# Driver runs

def run_driver(driver, workdir, tag, deadline=None, **flags):
    """Runs one driver process and returns its parsed result document.

    The process is killed at `deadline` (time.monotonic()), by default
    RUN_BUDGET_S from now.
    """
    out = os.path.join(workdir, tag + ".json")
    cmd = [driver, "--out", out]
    for key, value in flags.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    start = time.monotonic()
    if deadline is None:
        deadline = start + RUN_BUDGET_S
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=max(1.0, deadline - start))
    if proc.returncode != 0:
        raise BenchError("driver failed (%d): %s" % (proc.returncode,
                                                     " ".join(cmd)))
    with open(out) as f:
        doc = json.load(f)
    doc["wall_s"] = time.monotonic() - start
    if doc["build_type"] != "Release":
        raise BenchError("refusing numbers from a %s build" %
                         doc["build_type"])
    return doc


# ---------------------------------------------------------------------------
# Checks

def finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_run(doc, reference=None, reference_epochs=0):
    """Checks one run. Returns (attempted, failed, problems).

    An op is one decision epoch. An epoch fails when the budget (3a) was
    overdrawn at its decide() or by its cohort, when it selected a client
    outside E_t, when it selected fewer than n (3b) although E_t held n
    clients, or when its outcome was never observed or not finite. Run-level
    failures (unknown termination reason, a hard anomaly, the end-of-run
    ledger over C) fail the last epoch; a digest chain that departs from the
    thread-budget-1 reference fails every epoch from the first departure.
    """
    epochs = doc["epochs"]
    budget = doc["budget"]
    slack = 1e-9 * max(1.0, budget)
    failed = set()
    problems = []

    def fail(i, why):
        failed.add(i)
        if len(problems) < 8:
            problems.append("epoch %s: %s" % (epochs[i]["epoch"], why)
                            if 0 <= i < len(epochs) else why)

    for i, e in enumerate(epochs):
        if not finite(e["spent"]) or e["spent"] > budget + slack:
            fail(i, "spent %s over C=%s at decide" % (e["spent"], budget))
        if not finite(e["cohort_cost"]) or \
                e["spent"] + e["cohort_cost"] > budget + slack:
            fail(i, "cohort cost %s overdraws the remainder" %
                 e["cohort_cost"])
        if not e["subset_ok"]:
            fail(i, "selected a client outside E_t")
        if e["selected"] < doc["n_min"] <= e["available"]:
            fail(i, "selected %d < n=%d with %d available" %
                 (e["selected"], doc["n_min"], e["available"]))
        if not e["observed"]:
            fail(i, "outcome never observed")
        else:
            for key in ("train_loss_all", "test_loss"):
                if not finite(e[key]):
                    fail(i, "%s is not finite" % key)
            if e["selected"] > 0 and not finite(e["train_loss_selected"]):
                fail(i, "train_loss_selected is not finite")
            acc = e["test_accuracy"]
            if not finite(acc) or not 0.0 <= acc <= 1.0:
                fail(i, "accuracy %s outside [0,1]" % acc)

    last = len(epochs) - 1
    if doc["termination_reason"] not in TERMINATION_REASONS:
        fail(last, "termination reason %r" % doc["termination_reason"])
    hard = [a for a in doc["anomalies"] if a["hard"]]
    if hard:
        fail(last, "%d hard anomalies" % len(hard))
    if doc["trace"] and not doc["trace"][-1][3] <= budget + slack:
        fail(last, "ledger ends at %s over C=%s" % (doc["trace"][-1][3],
                                                     budget))
    if doc["workload"] != "select_1m" and len(doc["digests"]) != len(epochs):
        fail(last, "%d digests for %d epochs" % (len(doc["digests"]),
                                                 len(epochs)))
    if reference is not None:
        ours, ref = doc["digests"], reference["digests"]
        if reference_epochs:
            ours = ours[:reference_epochs]
        if len(ours) != len(ref):
            fail(last, "digest chain has %d entries, reference %d" %
                 (len(ours), len(ref)))
        else:
            for i, (a, b) in enumerate(zip(ours, ref)):
                if a != b:
                    for j in range(i, len(epochs)):
                        failed.add(j)
                    problems.append("digest departs from the thread-budget-1 "
                                    "reference at epoch %d" % i)
                    break
    if not epochs:
        return 1, 1, ["no epochs ran"]
    return len(epochs), len(failed), problems


# ---------------------------------------------------------------------------
# Statistics

def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples). With ten or fewer samples the
    maximum stands in and the percentile reads 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def epoch_intervals_ms(doc):
    starts = [e["decide_start"] for e in doc["epochs"]]
    return [1e3 * (b - a) for a, b in zip(starts, starts[1:])]


def work_done(doc):
    """The workload's unit of work: client DANE iterations reported to
    observe() on the training workloads, decisions on select_1m."""
    if doc["workload"] == "select_1m":
        return len(doc["epochs"])
    return sum(e["client_iters"] for e in doc["epochs"])


def time_to_accuracy(doc, target):
    for _, sim_t, acc, _ in doc["trace"]:
        if acc is not None and acc >= target:
            return sim_t
    return None


def summary(runs, spec):
    """The run-level figures a user sees, for the human-readable report."""
    first = runs[0]
    epochs_ms = [x for d in runs for x in epoch_intervals_ms(d)]
    decide_ms = [1e3 * e["decide_s"] for d in runs for e in d["epochs"]]
    iters = sum(e["client_iters"] for e in first["epochs"])
    target = spec["target_accuracy"]
    return {
        "runs": len(runs),
        "run_s": statistics.median(d["run_s"] for d in runs),
        "work_per_s": sum(work_done(d) for d in runs) /
        sum(d["run_s"] for d in runs),
        "cpu_ms_per_work": 1e3 * sum(d["cpu_s"] for d in runs) /
        sum(work_done(d) for d in runs),
        "ops": len(first["epochs"]),
        "termination_reason": first["termination_reason"],
        "epoch_ms.p50": statistics.median(epochs_ms),
        "epoch_ms.tail": "%.4g (p%.1f of %d)" % tail(epochs_ms),
        "decide_ms.p50": statistics.median(decide_ms),
        "decide_ms.tail": "%.4g (p%.1f of %d)" % tail(decide_ms),
        "client_iters_per_s": iters / first["run_s"],
        "sim_tta_s": None if target is None else
        time_to_accuracy(first, target),
        "target_accuracy": target,
        "final_accuracy": first["trace"][-1][2] if first["trace"] else None,
    }


def end_to_end_metrics(runs, setups):
    setup = [s for d in runs + setups for s in d["setup_s"]]
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(d["peak_rss_kb"] / 1024.0
                                         for d in runs),
    }


# ---------------------------------------------------------------------------
# Trace analysis

def scope_table(profile_path):
    """{(tid, scope): [total_s, count]} from the program's Chrome trace."""
    with open(profile_path) as f:
        events = json.load(f)["traceEvents"]
    table = {}
    for e in events:
        if e.get("ph") == "X":
            row = table.setdefault((e["tid"], e["name"]), [0.0, 0])
            row[0] += e["dur"] * 1e-6
            row[1] += 1
    return table


def scope_sum(table, name, field=0, tid=None):
    return sum(row[field] for (t, n), row in table.items()
               if n == name and (tid is None or t == tid))


def own_span_totals(doc):
    totals = {}
    for _, _, name, start, end in doc["spans"]:
        totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


PER_LAYER = [
    ("harness.run_s", "s"), ("harness.work_per_s", "1/s"),
    ("harness.cpu_ms_per_work", "ms"),
    ("harness.epoch_ms.p50", "ms"),
    ("harness.epoch_ms.tail", "ms"), ("harness.loop_s", "s"),
    ("harness.loop.share", "fraction"),
    ("core.decide_ms.p50", "ms"), ("core.decide_ms.tail", "ms"),
    ("core.observe_ms.p50", "ms"), ("core.decide.share", "fraction"),
    ("core.observe.share", "fraction"), ("core.selected_mean", "count"),
    ("core.repaired_clients", "count"), ("core.infeasible_epochs", "count"),
    ("core.active_clients", "count"), ("core.resident_mb", "MiB"),
    ("solver.calls", "count"), ("solver.iters_per_call", "count"),
    ("solver.s", "s"), ("solver.share", "fraction"),
    ("solver.share_of_decide", "fraction"),
    ("sim.advance_ms.p50", "ms"), ("sim.available_mean", "count"),
    ("fl.grad_phase.s", "s"), ("fl.grad_phase.share", "fraction"),
    ("fl.dane_phase.s", "s"), ("fl.dane_phase.share", "fraction"),
    ("fl.aggregate.s", "s"), ("fl.aggregate.share", "fraction"),
    ("fl.eval.s", "s"), ("fl.eval.share", "fraction"),
    ("fl.client_iterations", "count"), ("fl.client_iters_per_s", "1/s"),
    ("fl.replica_mb", "MiB"), ("fl.sim_tta_s", "sim_s"),
    ("fl.final_accuracy", "fraction"),
    ("fl.async.run.s", "s"), ("fl.async.run.share", "fraction"),
    ("fl.async.dispatch.s", "s"), ("fl.async.dispatch.share", "fraction"),
    ("fl.async.local_jobs.s", "s"),
    ("fl.async.local_jobs.share", "fraction"),
    ("fl.async.jobs_per_call", "count"),
    ("fl.async.staleness.mean", "versions"),
    ("fl.async.flushes", "count"), ("fl.async.drops", "count"),
    ("tensor.gemm.calls", "count"), ("tensor.gemm.gflop", "GFLOP"),
    ("tensor.gemm.mflop_per_call", "MFLOP"), ("tensor.gemm.thread_s", "s"),
    ("tensor.gemm.share", "fraction"), ("tensor.gemm.gflops", "GFLOP/s"),
    ("tensor.gemm.threaded_calls", "count"),
    ("tensor.gemm.ceiling_gflops", "GFLOP/s"),
    ("tensor.gemm.ceiling_ratio", "fraction"),
    ("parallel.pool.busy_s", "s"), ("parallel.utilization", "fraction"),
    ("parallel.tasks", "count"), ("parallel.steals", "count"),
    ("parallel.speedup", "x"), ("parallel.efficiency", "fraction"),
    ("obs.trace_overhead", "fraction"), ("obs.anomalies.soft", "count"),
    ("obs.anomalies.hard", "count"),
]


def layer_metrics(untraced, traced, serial, ceiling, profile_path):
    """Per-layer metrics from one traced run, its untraced twin and the
    thread-budget-1 run (None on select_1m, which never fans out)."""
    table = scope_table(profile_path)
    main_tid = next((t for t, n in table if n == "learner.decide"), None)

    def on_main(name):
        return scope_sum(table, name, 0, main_tid)

    c, g, h = traced["counters"], traced["gauges"], traced["histograms"]
    run_s = traced["run_s"]
    threads = traced["threads"]
    own = own_span_totals(traced)
    decide_s = own.get("decide", 0.0)
    observe_s = own.get("observe", 0.0)
    training = traced["workload"] != "select_1m"
    engine_s = on_main("fl.run_epoch") + on_main("fl.async.dispatch") + \
        on_main("fl.async.run")
    epochs = untraced["epochs"]
    epochs_ms = epoch_intervals_ms(untraced)
    decide_ms = [1e3 * e["decide_s"] for e in epochs]
    spec = WORKLOADS[traced["workload"]]
    user = summary([untraced], spec)
    gemm_calls = c.get("gemm.calls", 0)
    gflop = c.get("gemm.flops", 0) * 1e-9
    gemm_thread_s = scope_sum(table, "tensor.gemm")
    gflops = gflop / gemm_thread_s if gemm_thread_s > 0 else 0.0
    solver_s = scope_sum(table, "solver.minimize")
    solver_calls = c.get("solver.calls", 0)
    job_calls = scope_sum(table, "fl.local_jobs", 1)
    staleness = h.get("fl.async.staleness", {"total": 0, "sum": 0.0})
    speedup = serial["run_s"] / untraced["run_s"] if serial else 0.0

    m = {
        "harness.run_s": untraced["run_s"],
        "harness.work_per_s": user["work_per_s"],
        "harness.cpu_ms_per_work": user["cpu_ms_per_work"],
        "harness.epoch_ms.p50": statistics.median(epochs_ms),
        "harness.epoch_ms.tail": tail(epochs_ms)[0],
        "harness.loop_s": max(0.0, run_s - decide_s - observe_s - engine_s)
        if training else 0.0,
        "core.decide_ms.p50": statistics.median(decide_ms),
        "core.decide_ms.tail": tail(decide_ms)[0],
        "core.observe_ms.p50": statistics.median(
            1e3 * e["observe_s"] for e in epochs),
        "core.decide.share": decide_s / run_s,
        "core.observe.share": observe_s / run_s,
        "core.selected_mean": statistics.mean(e["selected"] for e in epochs),
        "core.repaired_clients": c.get("budget.repaired_clients", 0),
        "core.infeasible_epochs": c.get("learner.infeasible_epochs", 0),
        "core.active_clients": traced["active_clients"],
        "core.resident_mb": traced["resident_bytes"] / MIB,
        "solver.calls": solver_calls,
        "solver.iters_per_call": c.get("solver.iterations", 0) /
        solver_calls if solver_calls else 0.0,
        "solver.s": solver_s,
        "solver.share_of_decide": solver_s / decide_s if decide_s else 0.0,
        "sim.advance_ms.p50": statistics.median(
            1e3 * e["advance_s"] for e in epochs),
        "sim.available_mean": statistics.mean(e["available"] for e in epochs),
        "fl.grad_phase.s": on_main("fl.grad_phase"),
        "fl.dane_phase.s": on_main("fl.dane_phase"),
        "fl.aggregate.s": on_main("fl.aggregate"),
        # fl.run_epoch outside its phase scopes: batch gathering, latency
        # accounting and the unscoped end-of-epoch evaluation.
        "fl.eval.s": max(0.0, on_main("fl.run_epoch") -
                         on_main("fl.grad_phase") - on_main("fl.dane_phase") -
                         on_main("fl.aggregate")),
        "fl.client_iterations": c.get("fl.client_iterations", 0),
        "fl.client_iters_per_s": user["client_iters_per_s"]
        if training else 0.0,
        "fl.replica_mb": g.get("fl.replica_bytes", 0.0) / MIB,
        "fl.sim_tta_s": user["sim_tta_s"] or 0.0,
        "fl.final_accuracy": user["final_accuracy"] or 0.0,
        "fl.async.run.s": on_main("fl.async.run"),
        "fl.async.dispatch.s": on_main("fl.async.dispatch"),
        "fl.async.local_jobs.s": on_main("fl.local_jobs"),
        "fl.async.jobs_per_call": scope_sum(table, "fl.client_local_job", 1) /
        job_calls if job_calls else 0.0,
        "fl.async.staleness.mean": staleness["sum"] / staleness["total"]
        if staleness["total"] else 0.0,
        "fl.async.flushes": c.get("fl.async.flushes", 0),
        "fl.async.drops": c.get("fl.async.drops", 0),
        "tensor.gemm.calls": gemm_calls,
        "tensor.gemm.gflop": gflop,
        "tensor.gemm.mflop_per_call": 1e3 * gflop / gemm_calls
        if gemm_calls else 0.0,
        "tensor.gemm.thread_s": gemm_thread_s,
        "tensor.gemm.share": gemm_thread_s / (run_s * threads),
        "tensor.gemm.gflops": gflops,
        "tensor.gemm.threaded_calls": c.get("gemm.threaded_calls", 0),
        "tensor.gemm.ceiling_gflops": ceiling,
        "tensor.gemm.ceiling_ratio": gflops / ceiling if ceiling else 0.0,
        "parallel.pool.busy_s": c.get("pool.busy_us", 0) * 1e-6,
        "parallel.utilization": traced["cpu_s"] / (run_s * threads),
        "parallel.tasks": c.get("pool.tasks_executed", 0),
        "parallel.steals": c.get("scheduler.steals", 0),
        "parallel.speedup": speedup,
        "parallel.efficiency": speedup / threads,
        "obs.trace_overhead": run_s / untraced["run_s"] - 1.0,
        "obs.anomalies.soft": sum(1 for a in traced["anomalies"]
                                  if not a["hard"]),
        "obs.anomalies.hard": sum(1 for a in traced["anomalies"]
                                  if a["hard"]),
    }
    for name in ("harness.loop", "solver", "fl.grad_phase", "fl.dane_phase",
                 "fl.aggregate", "fl.eval", "fl.async.run",
                 "fl.async.dispatch", "fl.async.local_jobs"):
        seconds = m[name + "_s"] if name == "harness.loop" else m[name + ".s"]
        m[name + ".share"] = seconds / run_s

    notes = {"user": user}
    if traced["workload"] == "lockstep_fmnist":
        # The phases of a lockstep epoch tile the traced run; their sum over
        # the untraced run_s exceeds 1 by about the tracing overhead.
        phases = ["fl.grad_phase.s", "fl.dane_phase.s", "fl.aggregate.s",
                  "fl.eval.s", "harness.loop_s"]
        notes["phase_sum_over_untraced_run_s"] = (
            sum(m[p] for p in phases) + decide_s + observe_s) / \
            untraced["run_s"]
    return m, notes


# ---------------------------------------------------------------------------
# Main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0],
                                allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--epochs", type=int, default=0,
                   help="shorter horizon for smoke tests (0 = workload's)")
    return p.parse_args(argv)


def measure(args, driver, workdir):
    """Runs the invocation's driver processes; returns the metrics, their
    units, the check totals and a report for humans."""
    spec = WORKLOADS[args.workload]
    select = args.workload == "select_1m"
    base = {"workload": args.workload, "seed": args.seed}
    if args.epochs:
        base["epochs"] = args.epochs
    ref_epochs = spec["reference_epochs"]
    if args.epochs and ref_epochs:
        ref_epochs = min(ref_epochs, args.epochs)

    deadline = time.monotonic() + RUN_BUDGET_S

    def drive(tag, **flags):
        return run_driver(driver, workdir, tag, deadline, **flags)

    if args.trace == 0:
        reference = drive("reference", threads=1,
                          **dict(base, epochs=ref_epochs or args.epochs))
        # Complete runs of the seed while another one fits in --seconds.
        runs = []
        started = time.monotonic()
        while True:
            runs.append(drive("run%d" % len(runs), threads=THREADS, **base))
            if time.monotonic() - started + runs[-1]["wall_s"] > args.seconds:
                break
        setups = [drive("setup%d" % i, threads=THREADS, setup_only=1, **base)
                  for i in range(SETUP_PROCESSES)]
        checked = [(reference, None)] + [(d, reference) for d in runs]
        metrics = end_to_end_metrics(runs, setups)
        units = dict(END_TO_END)
        report = {"user": summary(runs, spec)}
    else:
        untraced = drive("untraced", threads=THREADS, **base)
        profile = os.path.join(workdir, "profile.json")
        traced = drive("traced", threads=THREADS, trace=1,
                       profile_out=profile, **base)
        if select:
            reference = drive("reference", threads=1, ceiling_reps=20,
                              **dict(base, epochs=ref_epochs))
            serial = None
        else:
            # The full thread-budget-1 run: speedup base and reference.
            reference = serial = drive("serial", threads=1, ceiling_reps=20,
                                       **base)
            ref_epochs = 0
        checked = [(reference, None), (untraced, reference),
                   (traced, reference)]
        metrics, report = layer_metrics(untraced, traced, serial,
                                        reference["ceiling_gflops"], profile)
        units = dict(PER_LAYER)

    attempted = failed = 0
    problems = []
    for doc, ref in checked:
        a, f, p = check_run(doc, ref, ref_epochs)
        attempted += a
        failed += f
        problems += p
    report["provenance"] = {
        "build_type": reference["build_type"],
        "gemm.kernel_tier": reference["kernel_tier"],
        "kernel": reference["kernel_name"],
        "nproc": reference["nproc"],
        "thread_budget": THREADS,
        "seed": args.seed,
    }
    assert set(metrics) == set(units), set(metrics) ^ set(units)
    return metrics, units, attempted, failed, problems, report


def main(argv=None):
    args = parse_args(argv)
    try:
        driver = build_driver()
        workdir = tempfile.mkdtemp(prefix="run-", dir=build_dir())
        try:
            metrics, units, attempted, failed, problems, report = measure(
                args, driver, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        log("perfbench: %s" % e)
        return 1

    print("perfbench %s seed %d trace %d: %d ops, %d failed" % (
        args.workload, args.seed, args.trace, attempted, failed))
    for key, value in sorted(report.items()):
        print("  %s: %s" % (key, json.dumps(value, sort_keys=True)))
    for name, unit in (END_TO_END if args.trace == 0 else PER_LAYER):
        print("  %-30s %14.6g %s" % (name, metrics[name], unit))
    for p in problems:
        print("  FAILED %s" % p)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
