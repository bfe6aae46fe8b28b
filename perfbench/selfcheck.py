"""Self-check of the benchmark harness.

1. Perturbed outputs must fail the checks: each workload's F^2-type
   column is scaled by 1 + 1e-6 after the program wrote it. For mc-paper,
   whose per-op outputs are ensemble means, the exact f_hat / f_tilde
   probe output is perturbed by 1 + 1e-6, and the ensemble test must
   reject op means scaled by 1.5 (it is built to catch gross errors only).
2. A traced mc-paper run gives per-curve times to set beside the
   baseline recorded in ROADMAP.md (n = 1368, m = 2, 29 scales).

Run from the repository root::

    python3 perfbench/selfcheck.py

Exits non-zero if a perturbed output passes a check.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

from run import OUT, SRC, check, run_op
import workloads

PERTURBATION = 1 + 1e-6
# ms per curve at n = 1368, m = 2 on the default grid, from ROADMAP.md
BASELINE = {
    "estimators.dfa.ms_per_call": 25.0,
    "estimators.f_hat.ms_per_call": 54.0,
    "estimators.f_tilde.ms_per_call": 49.0,
    "core.weight_matrix.ms_per_curve": 12.8,
    "estimators.gap_weights.ms_per_curve": 10.3,
}


def perturb(path: Path, column: str, factor: float = PERTURBATION) -> None:
    """Scale one numeric column of a dfakit CSV output in place."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = next(i for i, r in enumerate(rows) if r and not r[0].startswith("#"))
    col = rows[header].index(column)
    for row in rows[header + 1:]:
        if row[col]:
            row[col] = repr(float(row[col]) * factor)
    with open(path, "w", newline="") as fh:
        for row in rows[:header]:
            fh.write(",".join(row) + "\n")
        csv.writer(fh).writerows(rows[header:])


def check_perturbed(cli, wl, n_ops: int, path: Path, column: str) -> list[str]:
    problems = []
    for op in islice(wl.ops(), n_ops):
        if run_op(cli, op) != 0:
            problems.append(f"{wl.name}: op exited non-zero")
            continue
        before = check(wl, op)
        perturb(path, column)
        after = check(wl, op)
        print(f"{wl.name}: unperturbed -> {before or 'ok'}; "
              f"{column} x (1 + 1e-6) -> {after or 'ok'}")
        if after is None or after == before:
            problems.append(f"{wl.name}: perturbed {column} not detected")
    return problems


def check_mc(cli, wl) -> list[str]:
    problems = []
    # ten ops per model, so the t-tests have nine degrees of freedom
    for op in islice(wl.ops(), 20):
        if run_op(cli, op) != 0 or check(wl, op):
            problems.append("mc-paper: unperturbed op failed its check")
    if wl.finish(cli.main):
        problems.append("mc-paper: unperturbed ensemble failed")

    def perturbing_main(argv):
        rc = cli.main(argv)
        perturb(Path(argv[argv.index("--out") + 1]), "F_squared")
        return rc

    reason = wl._exact_probe(perturbing_main)
    print(f"mc-paper: probe F_squared x (1 + 1e-6) -> {reason}")
    if reason is None:
        problems.append("mc-paper: perturbed probe output not detected")
    for _, kind, means in wl.units:
        if kind == "fgn":
            means["standard"] = means["standard"] * 1.5
    failed = wl._ensemble_tests()
    print(f"mc-paper: fGn standard means x 1.5 -> {failed.get('fgn')}")
    if "fgn" not in failed:
        problems.append("mc-paper: scaled ensemble means not detected")
    return problems


def baseline_comparison() -> None:
    res = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--workload", "mc-paper", "--seed", "1", "--seconds", "20",
         "--trace", "1"], capture_output=True, text=True, check=True)
    metrics = json.loads(res.stdout.strip().splitlines()[-1])["metrics"]
    print(f"{'per curve, ms':40s} {'traced':>8s} {'ROADMAP':>8s} {'ratio':>6s}")
    for name, base in BASELINE.items():
        got = metrics[name]["value"]
        print(f"{name:40s} {got:8.2f} {base:8.2f} {got / base:6.2f}")


def main() -> int:
    sys.path.insert(0, str(SRC))
    import dfakit.cli as cli

    workdir = OUT / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        problems = []
        wl = workloads.AnalyzeLong(7, workdir)
        problems += check_perturbed(cli, wl, 2, wl.out, "F_squared")
        wl = workloads.ExpectedSweep(7, workdir)
        problems += check_perturbed(cli, wl, 6, wl.out, "EF2")
        problems += check_mc(cli, workloads.McPaper(7, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    baseline_comparison()
    for p in problems:
        print("FAIL:", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
