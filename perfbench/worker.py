"""One benchmark run of one workload, in the process ``run.py`` starts.

``run.py`` pins BLAS to one thread in this process's environment before
numpy is imported here.  The run sets up several times, then repeats
the workload's timed pass, with one more set-up after each, until about
``--seconds`` have been spent measuring.  With ``--trace 1`` it sets up
once more with tracing, runs untraced passes for half the time, then
one traced pass and the attention kernel race.

Standard output gets one detail line (machine facts, every set-up and
pass, every failed check) and, last, the result line.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import oracle
import tracing
import workloads
from storerank import attention, metrics, model

ROOT = Path(__file__).resolve().parent.parent
# set-up repeats until both minimums are met, so that the reported
# median of a cheap set-up is not one cold sample
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 20
ORTHO_LIMIT = 1e-6
ORACLE_TOL = 1e-12
BENCH_SIZES = (256, 512, 1024)


END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "train_rows_per_s": "rows/s",
                    "eval_rows_per_s": "rows/s",
                    "tokenizer_fit_items_per_s": "items/s", "val_auc": "1",
                    "peak_rss_mb": "MB"}


def per_layer_units():
    """Every per-layer metric name and its unit, in report order."""
    units = {name: "s" for name in tracing.self_time_names()}
    units.update({
        "opmq.steps": "count", "tok.items": "count", "fit.steps": "count",
        "fit.step_ms_p50": "ms", "fit.step_ms_p90": "ms",
        "fit.tensor.adam_step.entries_per_step": "count",
        "fit.tensor.adam_step.touched_row_ratio": "1",
        "eval.metrics.gauc.groups": "count", "eval.rows": "count",
        "trace.overhead_s": "s",
    })
    for kind in ("dense_ms", "sparse_ms"):
        for h in BENCH_SIZES:
            units[f"attention.bench.{kind}.h{h}"] = "ms"
    return units


def machine_facts(workload, seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    return {"workload": workload, "seed": seed, "git_commit": commit,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "blas": blas, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "numpy": np.__version__}


class ScoredRows:
    """Keeps the (labels, scores, groups) that ``evaluate`` hands to GAUC,
    so the oracle can recompute every metric on the rows really scored.
    Patches the name where ``evaluate`` looks it up."""

    def __enter__(self):
        self.owner = model if hasattr(model, "gauc") else metrics
        self.orig = self.owner.gauc
        self.last = None

        def capture(labels, scores, groups):
            self.last = (np.array(labels), np.array(scores), np.array(groups))
            return self.orig(labels, scores, groups)
        self.owner.gauc = capture
        return self

    def __exit__(self, *exc):
        self.owner.gauc = self.orig

    def take(self):
        rows, self.last = self.last, None
        return rows


def check_record(wl, record, rows, first_auc):
    """Failed checks of one set-up or pass, as short strings."""
    failures = []
    for m in record["models"]:
        bank = getattr(m, "bank", None)
        if bank is not None and max(bank.orthogonality_errors()) >= ORTHO_LIMIT:
            failures.append(f"rotation orthogonality error >= {ORTHO_LIMIT}")
    if record.get("eval_repeats_match") is False:
        failures.append("repeated evaluate calls returned different metrics")
    res = record.get("eval")
    if res is None:
        return failures
    auc = res["auc"]
    if not (math.isfinite(auc) and auc > wl.auc_floor):
        failures.append(f"val_auc {auc!r} not above floor {wl.auc_floor}")
    if first_auc is not None and auc != first_auc:
        failures.append(f"val_auc {auc!r} differs from the run's first {first_auc!r}")
    if rows is None:
        failures.append("evaluate's scored rows were not captured")
        return failures
    labels, scores, groups = rows
    ref = {"auc": oracle.auc(labels, scores),
           "gauc": oracle.gauc(labels, scores, groups),
           "logloss": oracle.logloss(labels, scores)}
    for key, want in ref.items():
        if not abs(res[key] - want) <= ORACLE_TOL:
            failures.append(f"{key} {res[key]!r} vs oracle {want!r}")
    return failures


class Run:
    """The set-ups and passes of one run, each checked as soon as it ends."""

    def __init__(self, wl, scored):
        self.wl = wl
        self.scored = scored
        self.ops = []
        self.first_auc = None

    def op(self, kind, fn, clock):
        """Runs one set-up or pass.  An exception in a pass is a failed
        operation; an exception in set-up ends the run."""
        record = workloads.new_record()
        t0 = time.perf_counter()
        try:
            out = fn(record)
        except Exception:
            if kind == "setup":
                raise
            traceback.print_exc()
            self.scored.take()
            op = {"kind": kind, "record": None, "failures": ["raised"]}
            self.ops.append(op)
            return None, op
        op = {"kind": kind, "seconds": time.perf_counter() - t0,
              "clock": clock.seconds, "record": record}
        rows = self.scored.take() if "eval" in record else None
        op["failures"] = check_record(self.wl, record, rows, self.first_auc)
        if self.first_auc is None and "eval" in record:
            self.first_auc = record["eval"]["auc"]
        self.ops.append(op)
        return out, op


def rate(ops, count_key, phase):
    """Work per second of one phase, pooled over the run's passes (summed
    count over summed seconds).  On six sets of ten runs, pooling spread
    less between runs than a median of per-pass rates in five of them."""
    passes = [op for op in ops if op["kind"] == "pass" and op["record"]]
    return (sum(op["record"][count_key] for op in passes)
            / sum(op["clock"][phase] for op in passes))


def end_to_end(ops):
    passes = [op for op in ops if op["kind"] == "pass" and op["record"]]
    setups = [op["seconds"] for op in ops if op["kind"] == "setup"]
    first = passes[0]["record"]["eval"]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.fmean(op["seconds"] for op in passes),
        "train_rows_per_s": rate(ops, "train_rows", "fit"),
        "eval_rows_per_s": rate(ops, "eval_rows", "eval"),
        "tokenizer_fit_items_per_s": rate(ops, "tok_items", "opmq"),
        "val_auc": first["auc"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, counters, traced_op, untraced, bench):
    """Per-layer metrics of the traced set-up and pass, and failed checks
    of the rule that each phase's self times add up to its wall time."""
    selfs, wall = tracer.self_times()
    out = {}
    for phase, (root, children) in tracing.PHASES.items():
        for name in [root] + children:
            out[f"{phase}.{name}.self_s"] = selfs.get((phase, name), 0.0)
    steps = {ph: sorted(s["end"] for s in tracer.spans
                        if s["phase"] == ph and s["name"] == "tensor.adam_step")
             for ph in ("opmq", "fit")}
    gaps = np.diff(steps["fit"]) * 1e3
    n_fit = len(steps["fit"])
    out.update({
        "opmq.steps": len(steps["opmq"]),
        "tok.items": traced_op["record"]["catalog_items"],
        "fit.steps": n_fit,
        "fit.step_ms_p50": float(np.percentile(gaps, 50)) if gaps.size else 0.0,
        "fit.step_ms_p90": float(np.percentile(gaps, 90)) if gaps.size else 0.0,
        "fit.tensor.adam_step.entries_per_step":
            counters.adam_entries / n_fit if n_fit else 0.0,
        "fit.tensor.adam_step.touched_row_ratio":
            counters.touched_rows / counters.table_rows if counters.table_rows else 0.0,
        "eval.metrics.gauc.groups": counters.gauc_groups,
        "eval.rows": traced_op["record"]["eval_rows"],
        "trace.overhead_s": traced_op["seconds"] - statistics.median(untraced),
    })
    for h in BENCH_SIZES:
        row = bench.get(h, {})
        out[f"attention.bench.dense_ms.h{h}"] = row.get("wall_time_dense_ms", 0.0)
        out[f"attention.bench.sparse_ms.h{h}"] = row.get("wall_time_sparse_ms", 0.0)
    failures = []
    for phase, seconds in wall.items():
        total = sum(v for (ph, _), v in selfs.items() if ph == phase)
        if abs(total - seconds) > 1e-9 * max(1.0, seconds):
            failures.append(f"{phase}: self times sum to {total}, wall is {seconds}")
    return out, failures


def kernel_race():
    """test_08c's sparse-vs-dense race, workload-independent, so every
    traced run carries it."""
    if not hasattr(attention, "bench_attention"):
        return {}
    return {h: attention.bench_attention(h, d_model=256, n_heads=4, block_size=32,
                                         rho=0.5, seed=0)
            for h in BENCH_SIZES}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=56.0,
                   help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    wl = workloads.WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = wl.default_seed
    tracer = tracing.Tracer() if args.trace else None
    counters = tracing.Counters()
    workdir = ROOT / ".bench_build" / "perfbench"
    workdir.mkdir(parents=True, exist_ok=True)
    detail = {"facts": machine_facts(wl.name, args.seed)}

    with tempfile.TemporaryDirectory(dir=workdir) as tmp, ScoredRows() as scored:
        run = Run(wl, scored)

        def setup(traced=False):
            def body(record):
                with tracer.in_phase("setup") if traced else nullcontext():
                    return wl.setup(args.seed, Path(tmp))
            with tracing.Patches(tracer) if traced else nullcontext():
                return run.op("setup", body, tracing.PhaseClock())

        def timed_pass(clock):
            return run.op("pass", lambda rec: wl.run(state, clock, rec), clock)[1]

        t_start = time.perf_counter()
        while (len(run.ops) < SETUP_MIN_REPEATS
               or (time.perf_counter() - t_start < SETUP_MIN_SECONDS
                   and len(run.ops) < SETUP_MAX_REPEATS)):
            state, _ = setup()
        if tracer:
            state, _ = setup(traced=True)

        budget = args.seconds / 2 if tracer else args.seconds
        t_start = time.perf_counter()
        while True:
            op = timed_pass(tracing.PhaseClock())
            # stop at the pass boundary nearest to the budget, so a run
            # measures --seconds give or take half a pass
            if time.perf_counter() - t_start + op.get("seconds", 0.0) / 2 >= budget:
                break
            # set up again between passes, so that set-up times sample the
            # host's slow and fast spells across the whole run, as passes do
            state, _ = setup()
        if tracer:
            untraced = [op["seconds"] for op in run.ops
                        if op["kind"] == "pass" and op["record"]]
            with tracing.Patches(tracer, counters.probes()) as patches:
                traced_op = timed_pass(tracing.PhaseClock(tracer))
            detail["absent"] = patches.absent
    ops = run.ops

    if tracer:
        if traced_op["record"] is None:
            raise RuntimeError("the traced pass raised")
        metrics_out, sum_failures = per_layer(tracer, counters, traced_op, untraced,
                                              kernel_race())
        traced_op["failures"] += sum_failures
        units = per_layer_units()
        trace_path = workdir / f"trace-{wl.name}-{args.seed}.jsonl"
        with open(trace_path, "w") as f:
            for s in tracer.spans:
                f.write(json.dumps(s) + "\n")
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics_out = end_to_end(ops)
        units = END_TO_END_UNITS
    failed = sum(1 for op in ops if op["failures"])
    detail["ops"] = [{"kind": op["kind"], "seconds": op.get("seconds"),
                      "phases": op.get("clock"), "failures": op["failures"],
                      "val_auc": (op["record"] or {}).get("eval", {}).get("auc")}
                     for op in ops]
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": metrics_out[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
