"""The benchmark's workloads: inputs made from a seed, the CLI calls of
each operation, and the checks of their outputs.

Inputs come from this file's own Philox streams, never from
``dfakit.generators``, so a change to the package's samplers cannot move
them. The program sees only files and argv. A check returns ``None`` when
the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import reference

# Philox stream of each kind of input, keyed as (seed, stream)
STREAM_ANALYZE, STREAM_MC, STREAM_EXPECTED, STREAM_PROBE = 1, 2, 3, 4

# rel. tolerance of a dfakit value against a reference value of the same
# quantity; loose enough for any reordering of the float arithmetic
REL_TOL = 1e-8


def philox(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


@dataclass
class Op:
    """One operation: CLI calls run back to back, timed as one."""

    calls: list[list[str]]
    meta: dict = field(default_factory=dict)


def _rows(path: Path) -> tuple[list[str], list[list[str]], list[str]]:
    """Comment lines, header and data rows of a dfakit CSV output."""
    comments, rows = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row and row[0].startswith("#"):
                comments.append(",".join(row))
            elif row:
                rows.append(row)
    return comments, rows[0], rows[1:]


def _close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * abs(want)


def _write_series(path: Path, values: np.ndarray,
                  present: np.ndarray | None = None) -> None:
    with open(path, "w") as fh:
        for i, v in enumerate(values):
            ok = present is None or present[i]
            fh.write(f"{float(v)!r}\n" if ok else "NA\n")


def _ar1(rng: np.random.Generator, n: int, phi: float) -> np.ndarray:
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / math.sqrt(1.0 - phi * phi)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + e[i]
    return x


class Workload:
    """Base: subclasses set ``name`` and implement ops() and check()."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def check(self, op: Op) -> str | None:
        raise NotImplementedError

    def finish(self, cli_main: Callable[[list[str]], int]) -> dict[int, str]:
        """End-of-run checks; maps op index to the reason it failed."""
        return {}


class McPaper(Workload):
    """``dfakit mc`` at the paper's setting: n = 1368, m = 2, 20% block gaps.

    Each op runs 10 replicates; ops alternate fGn H = 0.7 and fBm H = 1.1
    with a fresh seed. The mask is one fixed block-gap mask per run,
    passed as a file: exactly 20% of the points missing, in 23 gaps
    (mean 11.9 points) at random places. Fixing the share and the count
    keeps the estimators' work alike across seeds; a geometric mask
    let the missing share range over 16-31% and the gaps over 20-32.
    """

    name = "mc-paper"
    N, M, REPS = 1368, 2, 10
    GAP_FRACTION, MEAN_GAP = 0.2, 12.0
    MODELS = (("fgn", 0.7), ("fbm", 1.1))
    # scales tested statistically need this many windows per replicate,
    # so the op means are close to normal
    MIN_WINDOWS = 16
    # family-wise false-alarm probability of the end-of-run tests
    FALSE_ALARM = 1e-4

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.rng = philox(seed, STREAM_MC)
        self.mask = self._block_mask()
        self.mask_path = workdir / "mask.csv"
        _write_series(self.mask_path, self.mask.astype(int))
        self.scales = reference.scale_grid(self.N, self.M)
        self.out = workdir / "mc.csv"
        self.hurst_out = workdir / "mc_hurst.json"
        # per op: model kind and the op's mean F^2 per estimator
        self.units: list[tuple[int, str, dict[str, np.ndarray]]] = []

    def _composition(self, total: int, parts: int) -> np.ndarray:
        """``total`` split at random into ``parts`` positive lengths."""
        cuts = np.sort(self.rng.choice(np.arange(1, total), parts - 1,
                                       replace=False))
        return np.diff(np.concatenate(([0], cuts, [total])))

    def _block_mask(self) -> np.ndarray:
        missing = round(self.GAP_FRACTION * self.N)
        n_gaps = round(missing / self.MEAN_GAP)
        gaps = self._composition(missing, n_gaps)
        runs = self._composition(self.N - missing, n_gaps + 1)
        mask = np.ones(self.N, dtype=bool)
        pos = 0
        for run, gap in zip(runs, gaps):
            pos += run
            mask[pos: pos + gap] = False
            pos += gap
        return mask

    def ops(self) -> Iterator[Op]:
        i = 0
        while True:
            kind, hurst = self.MODELS[i % 2]
            yield Op(calls=[[
                "mc", "--model", json.dumps({"kind": kind, "hurst": hurst}),
                "-n", str(self.N), "-m", str(self.M),
                "--ensemble", str(self.REPS),
                "--seed", str(int(self.rng.integers(1, 2 ** 31))),
                "--mask", str(self.mask_path),
                "--out", str(self.out), "--hurst-out", str(self.hurst_out),
            ]], meta={"index": i, "kind": kind})
            i += 1

    def check(self, op: Op) -> str | None:
        _, header, rows = _rows(self.out)
        if header != ["estimator", "scale", "mean_F2", "q05_F2", "q95_F2",
                      "n_defined"]:
            return f"unexpected mc header {header}"
        means = {}
        for tag in ("standard", "f_hat", "f_tilde"):
            sel = [r for r in rows if r[0] == tag]
            if [int(r[1]) for r in sel] != self.scales.tolist():
                return f"{tag}: scale grid differs from default_scale_grid"
            n_def = np.array([int(r[5]) for r in sel])
            if n_def.min() < 0 or n_def.max() > self.REPS:
                return f"{tag}: n_defined outside 0..{self.REPS}"
            mean = np.array([float(r[2]) if r[2] else np.nan for r in sel])
            if not np.all(np.isfinite(mean[n_def > 0])):
                return f"{tag}: non-finite mean at a defined scale"
            # the ensemble tests use only means over all replicates
            mean[n_def < self.REPS] = np.nan
            means[tag] = mean
        if np.any(np.isnan(means["standard"])) or means["standard"].min() <= 0:
            return "standard estimator not defined and positive at every scale"
        with open(self.hurst_out) as fh:
            fits = json.load(fh)
        if sorted(fits) != ["f_hat", "f_tilde", "standard"]:
            return f"hurst output keys {sorted(fits)}"
        if any(len(v) != self.REPS for v in fits.values()):
            return "hurst output does not hold one value per replicate"
        if not all(math.isfinite(h) for h in fits["standard"]):
            return "non-finite standard Hurst estimate"
        self.units.append((op.meta["index"], op.meta["kind"], means))
        return None

    def finish(self, cli_main) -> dict[int, str]:
        failed = {}
        for kind, reason in self._ensemble_tests().items():
            failed.update({i: reason for i, k, _ in self.units if k == kind})
        reason = self._exact_probe(cli_main)
        if reason:
            failed.update({i: reason for i, _, _ in self.units})
        return failed

    def _ensemble_tests(self) -> dict[str, str]:
        """Criterion-09-style tests on the op means, per model.

        The standard mean matches the exact expected curve, and f_hat (and
        f_tilde, for the stationary model) match the standard curve on
        the same replicates, on fully covered scales. Each test is a
        Student-t test over the op means with a Bonferroni threshold.
        """
        windows = self.N // self.scales
        covered = np.array([reference.fully_covered(self.mask, int(s))
                            for s in self.scales])
        base = covered & (windows >= self.MIN_WINDOWS)
        plans = []
        for kind, hurst in self.MODELS:
            units = [u for _, k, u in self.units if k == kind]
            if len(units) < 4:
                print(f"note: {kind}: {len(units)} ops, too few for the "
                      "ensemble test", file=sys.stderr)
                continue
            stack = {t: np.vstack([u[t] for u in units]) for t in units[0]}
            expected = np.array([reference.expected_f2(kind, hurst, self.M,
                                                       int(s))[0]
                                 for s in self.scales])
            diffs = {"standard - expected": stack["standard"] - expected,
                     "f_hat - standard": stack["f_hat"] - stack["standard"]}
            if kind == "fgn":
                diffs["f_tilde - standard"] = (stack["f_tilde"]
                                               - stack["standard"])
            plans.append((kind, len(units), diffs))
        n_tests = int(base.sum()) * sum(len(d) for _, _, d in plans)
        failed = {}
        for kind, k, diffs in plans:
            limit = reference.t_threshold(k - 1, self.FALSE_ALARM / n_tests)
            for label, d in diffs.items():
                d = d[:, base]
                t = np.abs(d.mean(axis=0)) / (d.std(axis=0, ddof=1)
                                              / math.sqrt(k))
                # an undefined mean (NaN) fails too
                bad = ~(t <= limit)
                if bad.any():
                    i = int(np.argmax(bad))
                    failed[kind] = (f"{kind}: {label} at s={self.scales[base][i]}"
                                    f": |t|={t[i]:.1f} > {limit:.1f} ({k} ops)")
        return failed

    def _exact_probe(self, cli_main) -> str | None:
        """f_hat and f_tilde through ``dfakit analyze`` on this run's mask,
        against the matrix-product reference at every scale."""
        rng = philox(self.seed, STREAM_PROBE)
        x = _ar1(rng, self.N, 0.5)
        path, out = self.dir / "probe.csv", self.dir / "probe_curve.csv"
        _write_series(path, x, self.mask)
        for estimator, kernel in (("f_hat", "difference"),
                                  ("f_tilde", "product")):
            rc = cli_main(["analyze", "-i", str(path), "-m", str(self.M),
                           "--estimator", estimator, "--out", str(out),
                           "--hurst-out", str(self.dir / "probe_fit.json")])
            if rc != 0:
                return f"probe analyze --estimator {estimator} exit {rc}"
            _, _, rows = _rows(out)
            for row in rows:
                s, f2 = int(row[0]), float(row[2])
                want = reference.gap_f2(x, self.mask, self.M, s, kernel)
                if not _close(f2, want):
                    return (f"probe {estimator} s={s}: F2 {f2!r} vs "
                            f"reference {want!r}")
        return None


class AnalyzeLong(Workload):
    """``dfakit analyze --estimator standard`` on gap-free n = 10^4 series.

    The series are a pool of white noise, AR(1) and random-walk records
    with random scale and offset; ops cycle through the pool.
    """

    name = "analyze-long"
    N, M, POOL = 10_000, 2, 6

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = philox(seed, STREAM_ANALYZE)
        self.scales = reference.scale_grid(self.N, self.M)
        self.pool = []
        for k in range(self.POOL):
            kind = ("white", "ar1", "walk")[k % 3]
            if kind == "white":
                x = rng.standard_normal(self.N)
            elif kind == "ar1":
                x = _ar1(rng, self.N, float(rng.uniform(0.3, 0.95)))
            else:
                x = np.cumsum(rng.standard_normal(self.N))
            x = x * rng.uniform(0.1, 10.0) + rng.uniform(-50.0, 50.0)
            path = workdir / f"series{k}.csv"
            _write_series(path, x)
            f2 = np.array([reference.dfa_f2(x, self.M, int(s))
                           for s in self.scales])
            self.pool.append((path, f2))
        self.out = workdir / "curve.csv"
        self.fit_out = workdir / "fit.json"

    def ops(self) -> Iterator[Op]:
        i = 0
        while True:
            path, _ = self.pool[i % self.POOL]
            yield Op(calls=[[
                "analyze", "--estimator", "standard", "-m", str(self.M),
                "-i", str(path), "--out", str(self.out),
                "--hurst-out", str(self.fit_out),
            ]], meta={"pool": i % self.POOL})
            i += 1

    def check(self, op: Op) -> str | None:
        want = self.pool[op.meta["pool"]][1]
        _, header, rows = _rows(self.out)
        if header != ["scale", "F", "F_squared", "n_windows", "defined"]:
            return f"unexpected curve header {header}"
        if [int(r[0]) for r in rows] != self.scales.tolist():
            return "scale grid differs from default_scale_grid"
        for (s, _, f2, nw, ok), ref in zip(rows, want):
            s = int(s)
            if int(nw) != self.N // s or ok != "1":
                return f"s={s}: n_windows {nw} / defined {ok}"
            if not _close(float(f2), ref):
                return f"s={s}: F2 {f2} vs reference {float(ref)!r}"
        with open(self.fit_out) as fh:
            fit = json.load(fh)
        lo, hi = fit["fit_range"]
        sel = (self.scales >= lo) & (self.scales <= hi)
        if fit["n_points"] != int(sel.sum()) or sel.sum() < 3:
            return f"fit over {fit['n_points']} points in [{lo}, {hi}]"
        slope = reference.hurst_slope(self.scales[sel], want[sel])
        if not abs(fit["hurst"] - slope) <= 1e-6:
            return f"hurst {fit['hurst']!r} vs reference slope {slope!r}"
        # F last, so that a malformed F cell does not hide an error above
        for s, f, f2, _, _ in rows:
            try:
                value = float(f)
            except ValueError:
                return f"s={s}: F is not a number: {f!r}"
            if not _close(value, math.sqrt(float(f2)), 1e-12):
                return f"s={s}: F != sqrt(F2)"
        return None


class ExpectedSweep(Workload):
    """``dfakit expected`` then ``dfakit bias`` for one model per op.

    Models alternate fGn, H in (0.1, 0.9), and fBm, H in (1.1, 1.9); m
    cycles 1, 2, 3; the scales are the default grid of a record length n
    log-uniform on [2^10, 2^18], so s reaches 2^16. log2(n) follows a
    golden-ratio sequence from a random start: every seed spreads n
    evenly over the range, so op times are as alike across seeds as
    the draws allow. The first op is fixed (fGn H = 0.7, m = 2,
    n = 2^18) so that set-up time does not depend on the seed.
    """

    name = "expected-sweep"
    LOG2_N = (10.0, 18.0)
    GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
    # largest scale checked for m = 3, where G comes from the explicit
    # s x s weight matrix
    MAX_MATRIX_SCALE = 512
    # K^2(s) is within 1e-3 of 1 for every (m, H) drawn once s >= 2^14
    ASYMPTOTIC_SCALE = 2 ** 14

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.rng = philox(seed, STREAM_EXPECTED)
        self.out = workdir / "expected.csv"
        self.bias_out = workdir / "bias.csv"
        self.draws = workdir / "draws.jsonl"

    def ops(self) -> Iterator[Op]:
        i = 0
        start = float(self.rng.random())
        log_lo, log_hi = self.LOG2_N
        with open(self.draws, "w") as log:
            while True:
                m = 1 + (i + 1) % 3
                if i == 0:
                    kind, hurst, n = "fgn", 0.7, 2 ** 18
                else:
                    kind = "fgn" if i % 2 == 0 else "fbm"
                    lo = 0.1 if kind == "fgn" else 1.1
                    hurst = float(self.rng.uniform(lo, lo + 0.8))
                    u = (start + i * self.GOLDEN) % 1.0
                    n = int(round(2 ** (log_lo + (log_hi - log_lo) * u)))
                draw = {"kind": kind, "hurst": hurst, "m": m, "n": n}
                log.write(json.dumps(draw) + "\n")
                scales = [str(s) for s in reference.scale_grid(n, m)]
                yield Op(calls=[
                    ["expected", "--model",
                     json.dumps({"kind": kind, "hurst": hurst}),
                     "-m", str(m), "--scales", *scales,
                     "--out", str(self.out)],
                    ["bias", "--hurst", repr(hurst), "-m", str(m),
                     "--scales", *scales, "--out", str(self.bias_out)],
                ], meta=draw)
                i += 1

    def check(self, op: Op) -> str | None:
        kind, hurst, m, n = (op.meta[k] for k in ("kind", "hurst", "m", "n"))
        scales = reference.scale_grid(n, m).tolist()
        _, header, rows = _rows(self.out)
        if header != ["s", "EF2", "lambda_s2H", "K2"]:
            return f"unexpected expected header {header}"
        comments, header_b, rows_b = _rows(self.bias_out)
        if header_b != ["s", "K2", "K"]:
            return f"unexpected bias header {header_b}"
        lam = [float(c.split(":", 1)[1]) for c in comments
               if c.startswith("# lambda:")]
        if len(lam) != 1:
            return "bias output has no lambda line"
        if ([int(r[0]) for r in rows] != scales
                or [int(r[0]) for r in rows_b] != scales):
            return "scales differ from the requested grid"
        for (s, ef2, ls2h, k2), (_, k2b, kb) in zip(rows, rows_b):
            s, ef2, ls2h, k2 = int(s), float(ef2), float(ls2h), float(k2)
            if m <= 2 or s <= self.MAX_MATRIX_SCALE:
                want, size = reference.expected_f2(kind, hurst, m, s)
                if not abs(ef2 - want) <= 1e-9 * abs(want) + 1e-13 * size:
                    return f"s={s}: EF2 {ef2!r} vs reference {want!r}"
            if not _close(ls2h, lam[0] * float(s) ** (2 * hurst), 1e-12):
                return f"s={s}: lambda_s2H inconsistent with lambda"
            if not _close(k2, ef2 / ls2h, 1e-12):
                return f"s={s}: K2 != EF2 / lambda_s2H"
            if not _close(float(k2b), k2, 1e-9):
                return f"s={s}: bias K2 {k2b} vs expected K2 {k2!r}"
            if not _close(float(kb), math.sqrt(float(k2b)), 1e-12):
                return f"s={s}: K != sqrt(K2)"
        s_max, k2_max = scales[-1], float(rows[-1][3])
        if s_max >= self.ASYMPTOTIC_SCALE and not abs(k2_max - 1) <= 1e-3:
            return f"K2({s_max}) = {k2_max!r} not within 1e-3 of 1"
        return None


WORKLOADS = {w.name: w for w in (McPaper, AnalyzeLong, ExpectedSweep)}
