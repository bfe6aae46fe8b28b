"""Command-line interface.

Subcommands:

* analyze   — fluctuation curve (and Hurst fit) of a CSV series
* expected  — exact expected curve for a correlation model
* bias      — scaling constant and correction function K^2 over scales
* weights   — G(j, s) table / asymptotic coefficient vector
* simulate  — generate synthetic series (optionally with a gap mask)
* mc        — Monte Carlo ensemble study with and without gaps

Output is CSV/JSON only; every output starts with a comment line
carrying the fully resolved configuration, so runs can be reproduced
from their artifacts. Exit codes: 0 success, 2 usage, 3 I/O,
4 numeric/domain error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .estimators import (
    FluctuationCurve,
    GappedSeries,
    default_scale_grid,
    dfa,
    estimate_hurst,
    f_hat,
    f_tilde,
)
from .exceptions import DFAError
from .expectation import (
    asymptotic_lambda,
    correction_function,
    expected_f2,
)
from .generators import (
    apply_gap_mask,
    block_gap_mask,
    gen_ar1,
    gen_fbm,
    gen_fgn,
    gen_white,
)
from .models import model_from_spec
from .weights import asymptotic_coefficients, weight_function

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _read_series(path: str) -> GappedSeries:
    """One value per line; empty field or NA means missing."""
    values: list[float] = []
    mask: list[bool] = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#"):
                continue
            cell = row[0].strip()
            if cell == "" or cell.upper() in ("NA", "NAN"):
                values.append(0.0)
                mask.append(False)
            else:
                values.append(float(cell))
                mask.append(True)
    if not values:
        raise ValueError(f"no data rows in {path}")
    return GappedSeries(values=np.array(values), mask=np.array(mask, bool))


def _config_header(args: argparse.Namespace) -> str:
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k != "func" and v is not None}
    return "# config: " + json.dumps(cfg, default=str)


def _open_out(path: str | None):
    return open(path, "w", newline="") if path else sys.stdout


def _write_curve(fh, args, curve: FluctuationCurve) -> None:
    fh.write(_config_header(args) + "\n")
    w = csv.writer(fh)
    w.writerow(["scale", "F", "F_squared", "n_windows", "defined"])
    f = curve.f
    for i, s in enumerate(curve.scales):
        ok = curve.reasons[i] is None
        w.writerow([int(s), repr(float(f[i])) if ok else "",
                    repr(float(curve.f2[i])), int(curve.n_windows[i]),
                    int(ok)])


def _parse_scales(args, n: int, m: int) -> np.ndarray:
    if args.scales:
        return np.array(sorted({int(s) for s in args.scales}), dtype=int)
    return default_scale_grid(n, m)


def _model(args):
    spec = json.loads(args.model)
    return model_from_spec(spec)


def _fit_range(args, curve: FluctuationCurve):
    if args.fit_range:
        return tuple(args.fit_range)
    # central two octaves of the defined scales
    defined = curve.scales[curve.defined]
    if defined.size == 0:
        return None
    log_lo, log_hi = np.log2(defined.min()), np.log2(defined.max())
    mid = 0.5 * (log_lo + log_hi)
    return (int(2 ** (mid - 1)), int(np.ceil(2 ** (mid + 1))))


def cmd_analyze(args) -> int:
    gs = _read_series(args.input)
    scales = _parse_scales(args, gs.values.shape[0], args.order)
    if args.estimator == "standard":
        if not gs.gap_free:
            raise DFAError(
                "input has missing values; pick estimator f_hat or f_tilde"
            )
        curve = dfa(gs.values, args.order, scales)
    elif args.estimator == "f_hat":
        curve = f_hat(gs, args.order, scales)
    else:
        curve = f_tilde(gs, args.order, scales)
    with _open_out(args.out) as fh:
        _write_curve(fh, args, curve)
    fit = estimate_hurst(curve, _fit_range(args, curve))
    payload = {
        "estimator": curve.estimator,
        "hurst": fit.hurst,
        "intercept": fit.intercept,
        "fit_range": [fit.s_min, fit.s_max],
        "n_points": fit.n_points,
        "residual_std": fit.residual_std,
    }
    with _open_out(args.hurst_out) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return 0


def _expected_rows(model, m: int, scales, hurst: float | None):
    lam = asymptotic_lambda(m, hurst).value if hurst is not None else None
    for s in scales:
        s = int(s)
        ef2 = expected_f2(model, m, s)
        if lam is not None:
            ls2h = lam * float(s) ** (2 * hurst)
            yield s, ef2, ls2h, ef2 / ls2h
        else:
            yield s, ef2, None, None


def cmd_expected(args) -> int:
    model = _model(args)
    scales = (np.array(sorted({int(s) for s in args.scales}), int)
              if args.scales else 2 ** np.arange(
                  int(np.ceil(np.log2(args.order + 2))), 13))
    hurst = args.hurst
    if hurst is None:
        hurst = getattr(model, "hurst", None)
    with _open_out(args.out) as fh:
        fh.write(_config_header(args) + "\n")
        w = csv.writer(fh)
        w.writerow(["s", "EF2", "lambda_s2H", "K2"])
        for s, ef2, ls2h, k2 in _expected_rows(model, args.order, scales,
                                               hurst):
            w.writerow([s, repr(ef2),
                        "" if ls2h is None else repr(ls2h),
                        "" if k2 is None else repr(k2)])
    return 0


def cmd_bias(args) -> int:
    if args.hurst is None:
        print("dfakit bias: --hurst is required (flag or config file)",
              file=sys.stderr)
        return EXIT_USAGE
    scales = (np.array(sorted({int(s) for s in args.scales}), int)
              if args.scales else 2 ** np.arange(
                  int(np.ceil(np.log2(args.order + 2))), 13))
    lam = asymptotic_lambda(args.order, args.hurst)
    with _open_out(args.out) as fh:
        fh.write(_config_header(args) + "\n")
        fh.write(f"# lambda: {repr(lam.value)}\n")
        w = csv.writer(fh)
        w.writerow(["s", "K2", "K"])
        for s in scales:
            k2 = correction_function(args.order, args.hurst, int(s))
            w.writerow([int(s), repr(k2), repr(float(np.sqrt(k2)))])
    return 0


def cmd_weights(args) -> int:
    if args.asymptotic:
        coeffs = asymptotic_coefficients(args.order)
        payload = {
            "order": args.order,
            "d": [str(Fraction(x)) for x in coeffs.d],
            "inverse_gram": [[str(x) for x in row]
                             for row in coeffs.inverse_gram],
        }
        with _open_out(args.out) as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return 0
    if args.scale is None:
        raise DFAError("weights needs --scale unless --asymptotic is given")
    table = weight_function(args.order, args.scale)
    with _open_out(args.out) as fh:
        fh.write(_config_header(args) + "\n")
        w = csv.writer(fh)
        w.writerow(["j", "G"])
        for j, g in enumerate(table.values):
            w.writerow([j, repr(float(g))])
    return 0


def _generate(spec: dict, n: int, seed: int, replicate: int) -> np.ndarray:
    kind = spec.get("kind")
    if kind == "white":
        return gen_white(spec.get("gamma0", 1.0), n, seed, replicate)
    if kind == "fgn":
        return gen_fgn(spec["hurst"], spec.get("variance", 1.0), n, seed,
                       replicate)
    if kind == "fbm":
        return gen_fbm(spec["hurst"], spec.get("variance", 1.0), n, seed,
                       replicate)
    if kind == "ar1":
        return gen_ar1(spec["phi"], spec.get("gamma0", 1.0), n, seed,
                       replicate)
    raise DFAError(f"cannot simulate model kind {spec.get('kind')!r}")


def _mask_for(args, n: int) -> np.ndarray | None:
    if args.mask:
        return _read_series(args.mask).values.astype(bool)
    if args.gap_fraction:
        return block_gap_mask(n, args.gap_fraction, args.block_length,
                              args.seed + 10_000)
    return None


def cmd_simulate(args) -> int:
    spec = json.loads(args.model)
    x = _generate(spec, args.length, args.seed, args.replicate)
    mask = _mask_for(args, args.length)
    with _open_out(args.out) as fh:
        fh.write(_config_header(args) + "\n")
        w = csv.writer(fh)
        for i, v in enumerate(x):
            if mask is not None and not mask[i]:
                w.writerow(["NA"])
            else:
                w.writerow([repr(float(v))])
    return 0


def cmd_mc(args) -> int:
    spec = json.loads(args.model)
    n, m = args.length, args.order
    scales = _parse_scales(args, n, m)
    mask = _mask_for(args, n)
    rows = {"standard": [], "f_hat": [], "f_tilde": []}
    hursts = {"standard": [], "f_hat": [], "f_tilde": []}
    for r in range(args.ensemble):
        x = _generate(spec, n, args.seed, r)
        curves = {"standard": dfa(x, m, scales)}
        if mask is not None:
            gs = apply_gap_mask(x, mask)
            curves["f_hat"] = f_hat(gs, m, scales)
            curves["f_tilde"] = f_tilde(gs, m, scales)
        for tag, curve in curves.items():
            rows[tag].append(np.where(curve.defined, curve.f2, np.nan))
            try:
                fit = estimate_hurst(curve, _fit_range(args, curve))
                hursts[tag].append(fit.hurst)
            except DFAError:
                hursts[tag].append(float("nan"))
    with _open_out(args.out) as fh:
        fh.write(_config_header(args) + "\n")
        w = csv.writer(fh)
        w.writerow(["estimator", "scale", "mean_F2", "q05_F2", "q95_F2",
                    "n_defined"])
        for tag, data in rows.items():
            if not data:
                continue
            arr = np.vstack(data)
            for i, s in enumerate(scales):
                col = arr[:, i]
                ok = ~np.isnan(col)
                if ok.any():
                    w.writerow([tag, int(s), repr(float(np.mean(col[ok]))),
                                repr(float(np.quantile(col[ok], 0.05))),
                                repr(float(np.quantile(col[ok], 0.95))),
                                int(ok.sum())])
                else:
                    w.writerow([tag, int(s), "", "", "", 0])
    payload = {tag: vals for tag, vals in hursts.items() if vals}
    with _open_out(args.hurst_out) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", "-m", type=int, default=2,
                   help="detrending order m (default 2)")
    p.add_argument("--scales", type=int, nargs="+",
                   help="explicit scale grid (default: log-spaced)")
    p.add_argument("--out", help="output CSV path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfakit",
        description="Detrended fluctuation analysis: estimation, exact "
                    "expectations, bias, and gap-tolerant estimators.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config",
                        help="JSON file with defaults; flags win on conflict")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="DFA of a CSV series")
    _add_common(p)
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--estimator", choices=["standard", "f_hat", "f_tilde"],
                   default="standard")
    p.add_argument("--fit-range", type=int, nargs=2, metavar=("SMIN", "SMAX"))
    p.add_argument("--hurst-out", help="Hurst fit JSON path (default stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("expected", help="exact expected curve for a model")
    _add_common(p)
    p.add_argument("--model", required=True,
                   help='model JSON, e.g. {"kind": "fgn", "hurst": 0.7}')
    p.add_argument("--hurst", type=float,
                   help="Hurst exponent for the K2 column (defaults to the "
                        "model's, if it has one)")
    p.set_defaults(func=cmd_expected)

    p = sub.add_parser("bias", help="correction function K^2 over scales")
    _add_common(p)
    p.add_argument("--hurst", type=float,
                   help="Hurst exponent (required here or via --config)")
    p.set_defaults(func=cmd_bias)

    p = sub.add_parser("weights", help="G(j,s) table or asymptotic d_q")
    _add_common(p)
    p.add_argument("--scale", "-s", type=int)
    p.add_argument("--asymptotic", action="store_true",
                   help="emit exact d_q vector as JSON instead of a G table")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("simulate", help="generate a synthetic series")
    p.add_argument("--model", required=True)
    p.add_argument("--length", "-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicate", type=int, default=0)
    p.add_argument("--mask", help="CSV availability mask (0/1 per line)")
    p.add_argument("--gap-fraction", type=float)
    p.add_argument("--block-length", type=float, default=12.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mc", help="Monte Carlo ensemble study")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--length", "-n", type=int, default=1368)
    p.add_argument("--ensemble", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mask", help="CSV availability mask (0/1 per line)")
    p.add_argument("--gap-fraction", type=float)
    p.add_argument("--block-length", type=float, default=12.0)
    p.add_argument("--fit-range", type=int, nargs=2, metavar=("SMIN", "SMAX"))
    p.add_argument("--hurst-out", help="Hurst samples JSON (default stdout)")
    p.set_defaults(func=cmd_mc)
    return parser


def _apply_config_file(parser, args, argv) -> argparse.Namespace:
    """Parse again with the config file's values as subcommand defaults,
    so that any explicit flag, in any spelling, wins."""
    if not args.config:
        return args
    with open(args.config) as fh:
        defaults = json.load(fh)
    sub_action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    subparser = sub_action.choices[args.command]
    known = {a.dest for a in parser._actions + subparser._actions}
    unknown = set(defaults) - known
    if unknown:
        raise DFAError(f"unknown config keys: {sorted(unknown)}")
    subparser.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(parser, args, argv)
        return args.func(args)
    except (OSError, csv.Error) as exc:
        print(f"dfakit: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DFAError, ValueError, ArithmeticError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"dfakit: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
