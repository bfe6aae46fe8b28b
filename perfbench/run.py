"""dfakit benchmark: closed-loop CLI workloads, end to end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload mc-paper --seed 1 --seconds 50 --trace 0

One client drives ``dfakit.cli.main(argv)`` in this process; the next
operation starts when the previous one returns. Each operation's output
is checked, and a wrong answer counts as a failed operation. With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` every public dfakit function is wrapped and the line holds
per-layer metrics per operation. Details are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# one BLAS thread: on a few shared CPUs more threads spin-wait for each
# other and add noise without making an op faster. The variables must be
# set before numpy is first imported; set-up probes inherit them.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# fresh interpreters timed for set-up, the median reported: at least
# SETUP_PROBES, more while their total is under SETUP_PROBE_SECONDS
SETUP_PROBES, SETUP_PROBE_SECONDS, SETUP_PROBES_MAX = 5, 3.0, 9

# per-layer metrics: name -> unit
PER_LAYER = {
    "core.weight_matrix.calls": "count",
    "core.weight_matrix.self_ms": "ms",
    "core.weight_matrix.ms_per_curve": "ms",
    "estimators.gap_weights.calls": "count",
    "estimators.gap_weights.self_ms": "ms",
    "estimators.gap_weights.ms_per_curve": "ms",
    "estimators.dfa.self_ms": "ms",
    "estimators.f_hat.self_ms": "ms",
    "estimators.f_tilde.self_ms": "ms",
    "estimators.dfa.ms_per_call": "ms",
    "estimators.f_hat.ms_per_call": "ms",
    "estimators.f_tilde.ms_per_call": "ms",
    "estimators.estimate_hurst.self_ms": "ms",
    "estimators.peak_alloc_mib": "MiB",
    "generators.gen_fgn.self_ms": "ms",
    "generators.gen_fbm.self_ms": "ms",
    "weights.weight_function.calls": "count",
    "weights.weight_function.self_ms": "ms",
    "weights.weight_function.hit_ratio": "ratio",
    "weights.asymptotic_coefficients.self_ms": "ms",
    "expectation.expected_f2_stationary.self_ms": "ms",
    "expectation.expected_f2_increments.self_ms": "ms",
    "expectation.asymptotic_lambda.self_ms": "ms",
    "expectation.correction_function.self_ms": "ms",
    "cli.self_ms": "ms",
    "core.self_ms": "ms",
    "weights.self_ms": "ms",
    "models.self_ms": "ms",
    "expectation.self_ms": "ms",
    "estimators.self_ms": "ms",
    "generators.self_ms": "ms",
    "trace.op_ms": "ms",
    "trace.spans_per_op": "count",
    "trace.unattributed_pct": "%",
    "trace.overhead_pct": "%",
}
# the estimator calls (curves) a layer's time is shared out over
CURVES = {
    "core.weight_matrix": ("estimators.dfa", "estimators.f_hat",
                           "estimators.f_tilde"),
    "estimators.gap_weights": ("estimators.f_hat", "estimators.f_tilde"),
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def environment(np) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas_threads": BLAS_THREADS, "nproc": NPROC, "cpu": cpu,
            "git_commit": commit or "unknown (not a git checkout)"}


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for.

    Op times are CPU times: on a shared virtual machine the wall time of
    the same op swings by +-20% within seconds with the time other
    tenants take from our CPUs (steal), and CPU time does not count that.
    With one BLAS thread and one client, CPU time is the op's wall time
    on an otherwise idle machine.
    """
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


def setup_seconds(calls: list[list[str]]) -> float:
    """Median over fresh interpreters of the CPU time of starting Python,
    import dfakit and one cold op."""
    times: list[float] = []
    while len(times) < SETUP_PROBES or (sum(times) < SETUP_PROBE_SECONDS
                                        and len(times) < SETUP_PROBES_MAX):
        res = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC),
             json.dumps(calls)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        try:
            times.append(float(res.stdout.split()[-1]))
        except (IndexError, ValueError):
            raise RuntimeError(f"set-up probe crashed: {res.stderr.strip()}")
    log(f"setup probes (s): {[round(t, 4) for t in times]}")
    return statistics.median(times)


def check(wl, op) -> str | None:
    """The workload's check; an unreadable output is a failure too."""
    try:
        return wl.check(op)
    except Exception as exc:  # output missing or malformed
        return f"unreadable output: {exc!r}"


def run_op(cli, op) -> int:
    for argv in op.calls:
        rc = cli.main(argv)
        if rc != 0:
            return rc
    return 0


def per_layer(tracer, n_ops: int, cache_before: dict, cost_ns: float) -> dict:
    summ = tracer.summary()
    zero = {"calls": 0, "total_ns": 0, "self_ns": 0}

    def rec(name):
        return summ.get(name, zero)

    out = {}
    for metric in PER_LAYER:
        name, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = rec(name)["calls"] / n_ops
        elif stat == "self_ms" and name.count(".") == 1:
            out[metric] = rec(name)["self_ns"] / n_ops / 1e6
        elif stat == "self_ms":
            out[metric] = sum(r["self_ns"] for k, r in summ.items()
                              if k.split(".", 1)[0] == name) / n_ops / 1e6
        elif stat == "ms_per_call":
            r = rec(name)
            out[metric] = r["total_ns"] / r["calls"] / 1e6 if r["calls"] else 0.0
        elif stat == "ms_per_curve":
            curves = sum(rec(c)["calls"] for c in CURVES[name])
            out[metric] = rec(name)["total_ns"] / curves / 1e6 if curves else 0.0
    for name, fn in tracer.cached.items():
        before, after = cache_before[name], fn.cache_info()
        hits, misses = after.hits - before.hits, after.misses - before.misses
        out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out.setdefault("weights.weight_function.hit_ratio", 0.0)
    out["estimators.peak_alloc_mib"] = max(tracer.alloc_peaks, default=0) / 2 ** 20
    op_ns = rec("bench.op")["total_ns"]
    spans = len(tracer.spans) - rec("bench.op")["calls"]
    out["trace.op_ms"] = op_ns / n_ops / 1e6
    out["trace.spans_per_op"] = spans / n_ops
    out["trace.unattributed_pct"] = 100.0 * rec("bench.op")["self_ns"] / op_ns
    out["trace.overhead_pct"] = 100.0 * spans * cost_ns / (op_ns - spans * cost_ns)
    return {k: out[k] for k in PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["mc-paper", "analyze-long", "expected-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "dfakit" / "cli.py").is_file():
        log(f"dfakit sources not found under {SRC}; run from a checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import dfakit.cli as cli
    from workloads import WORKLOADS
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        log(f"imported dfakit from {cli.__file__}, not from {SRC}")
        return 2

    env = environment(np)
    log("environment: " + json.dumps(env))
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, cli, WORKLOADS[args.workload](args.seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, cli, wl) -> int:
    ops = wl.ops()
    first = next(ops)
    failed: dict[int, str] = {}
    tracer = None
    latencies: list[float] = []  # CPU seconds per timed op
    walls: list[float] = []  # wall seconds per timed op, for the log
    attempted = 0

    def attempt(op, timed: bool) -> None:
        nonlocal attempted
        idx = attempted
        attempted += 1
        with tracer.op() if tracer else contextlib.nullcontext():
            t0, c0 = time.perf_counter(), cpu_seconds()
            try:
                rc = run_op(cli, op)
            except SystemExit as exc:  # argparse rejected the argv
                rc = exc.code
            except Exception:
                log(traceback.format_exc())
                rc = -1
            t1, c1 = time.perf_counter(), cpu_seconds()
        if timed:
            latencies.append(c1 - c0)
            walls.append(t1 - t0)
        reason = f"exit code {rc}" if rc != 0 else check(wl, op)
        if reason:
            failed[idx] = reason

    if args.trace:
        # traced from the first, cold op on, so set-up work shows per layer
        import tracing
        cost_ns = tracing.wrapper_cost_ns()
        tracer = tracing.Tracer()
        tracer.install()
        cache_before = {k: f.cache_info() for k, f in tracer.cached.items()}
        pending = itertools.chain([first], ops)
    else:
        setup_s = setup_seconds(first.calls)
        attempt(first, timed=False)
        pending = ops
    start = time.perf_counter()
    try:
        for op in pending:
            attempt(op, timed=True)
            if time.perf_counter() - start >= args.seconds:
                break
        if tracer:
            tracer.allocation_pass(lambda: run_op(cli, first))
    finally:
        ops.close()
        if tracer:
            tracer.uninstall()
    failed.update(wl.finish(cli.main))
    for idx, reason in sorted(failed.items())[:5]:
        log(f"op {idx} failed: {reason}")

    n = len(latencies)
    result = {"correct": not failed, "attempted": attempted,
              "failed": len(failed)}
    if tracer:
        # one file per workload, so repeated runs do not fill the disk
        path = OUT / f"spans-{args.workload}.jsonl"
        tracer.write(path)
        log(f"{len(tracer.spans)} spans written to {path}")
        values = per_layer(tracer, n, cache_before, cost_ns)
        units = PER_LAYER
    else:
        ordered = sorted(latencies)
        # highest percentile with at least ten samples beyond it (the
        # maximum when there are too few samples for that)
        tail_rank = n - 11 if n > 10 else n - 1
        log(f"op_tail_ms is p{100.0 * (tail_rank + 1) / n:.1f} over {n} "
            "timed ops")
        log(f"wall time: ops_per_s {n / sum(walls):.4g}, op_p50_ms "
            f"{statistics.median(walls) * 1e3:.4g}; CPU / wall "
            f"{sum(latencies) / sum(walls):.3f}")
        values = {
            "ops_per_s": n / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": ordered[tail_rank] * 1e3,
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
            "success_rate": (attempted - len(failed)) / attempted,
        }
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                 "peak_rss_mib": "MiB", "setup_s": "s",
                 "success_rate": "ratio"}
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in values.items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
