"""Command-line interface.

Subcommands:

* analyze   — fluctuation curve (and Hurst fit) of a CSV series
* expected  — exact expected curve for a correlation model
* bias      — scaling constant and correction function K^2 over scales
* weights   — G(j, s) table / asymptotic coefficient vector
* simulate  — generate synthetic series (optionally with a gap mask)
* mc        — Monte Carlo ensemble study with and without gaps

Output is CSV/JSON only, written to --out (and --hurst-out) or, when no
path is given, to stdout, which stays open; a run that fails removes the
files it created. Every CSV artifact starts with
a comment line carrying the fully resolved configuration, so runs can be
reproduced from their artifacts; the JSON artifacts (the Hurst fits and
the asymptotic d_q) carry none. simulate and mc take a gap mask from
--mask or from --gap-fraction, never both. Exit codes: 0 success,
2 usage, 3 I/O, 4 numeric/domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .estimators import (
    GappedSeries,
    _hurst_fits,
    default_scale_grid,
    dfa,
    ensemble,
    estimate_hurst,
    f_hat,
    f_tilde,
)
from .core import _int_scales
from .exceptions import DFAError
from .expectation import asymptotic_lambda, expected_curve, scaling_model
from .generators import block_gap_mask, sample, sample_stack
from .models import model_from_spec
from .weights import (
    asymptotic_coefficients,
    asymptotic_inverse_gram,
    weight_function,
)

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


@contextlib.contextmanager
def _output(path: str | None):
    """The file at path, opened for writing and closed on exit; or, with
    no path, stdout, left open."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", newline="") as fh:
        yield fh


def _write_csv(path, args, header, rows, comments=()) -> None:
    """A CSV artifact: the # config: line, any further comment lines, the
    header row (none if header is None) and the rows. csv.writer writes
    a cell as "" when None and as str(v) otherwise, which for a float,
    numpy's float64 too, is repr(float(v)): the shortest text that reads
    back to the same double."""
    with _output(path) as fh:
        fh.write(_config_header(args) + "\n")
        for line in comments:
            fh.write(line + "\n")
        w = csv.writer(fh)
        if header is not None:
            w.writerow(header)
        w.writerows(rows)


def _write_json(path, payload) -> None:
    """A JSON artifact; a NaN or inf in it raises before the output is
    opened, as RFC 8259 has no such numbers."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    with _output(path) as fh:
        fh.write(text + "\n")


def _scales(args, n: int | None = None) -> np.ndarray:
    """The --scales grid, sorted and de-duplicated, each scale at least
    m + 2 (so that K^2 > 0); checked before any output is opened. By
    default, given a series length n, default_scale_grid(n, m); else the
    powers of two from the smallest one at or above m + 2 to 2^12."""
    m = args.order
    if not args.scales:
        if n is None:
            return 2 ** np.arange(int(np.ceil(np.log2(m + 2))), 13)
        return default_scale_grid(n, m)
    return _int_scales(m, sorted(set(args.scales)))


def _model(args):
    return model_from_spec(json.loads(args.model))


def _fit_range(args, scales: np.ndarray, defined: np.ndarray):
    """The --fit-range, else, per row of defined (..., S), the central two
    octaves of the defined scales (all scales if none is defined)."""
    if args.fit_range:
        return tuple(args.fit_range)
    log_lo = np.log2(np.where(defined, scales, scales.max()).min(axis=-1))
    log_hi = np.log2(np.where(defined, scales, scales.min()).max(axis=-1))
    mid = 0.5 * (log_lo + log_hi)
    # C pow per value, as for a scalar: numpy's vector pow can round apart
    lo, hi = (np.vectorize(pow)(2.0, mid + k) for k in (-1, 1))
    some = defined.any(axis=-1)
    return (np.where(some, lo, scales.min()).astype(int),
            np.where(some, np.ceil(hi), scales.max()).astype(int))


def cmd_analyze(args) -> int:
    gs = _read_series(args.input)
    scales = _scales(args, gs.values.shape[0])
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
    # the fit before the output is opened, so that a failed fit leaves
    # no file
    fit = estimate_hurst(curve, _fit_range(args, curve.scales, curve.defined))
    _write_csv(args.out, args, ["scale", "F", "F_squared", "n_windows",
                                "defined"],
               ((int(s), f if ok else None, f2, int(nw), int(ok))
                for s, f, f2, nw, ok in zip(curve.scales, curve.f, curve.f2,
                                            curve.n_windows, curve.defined)))
    _write_json(args.hurst_out, {
        "estimator": curve.estimator,
        "hurst": fit.hurst,
        "intercept": fit.intercept,
        "fit_range": [fit.s_min, fit.s_max],
        "n_points": fit.n_points,
        "residual_std": fit.residual_std,
    })
    return 0


def _expected_rows(scales, ef2, hurst, lam: float | None):
    """Per scale: s, E F^2(s) and, given lambda, lambda s^{2H} and K^2."""
    for s, e in zip(scales.tolist(), ef2.tolist()):
        if lam is not None:
            ls2h = lam * float(s) ** (2 * float(hurst))
            yield s, e, ls2h, e / ls2h
        else:
            yield s, e, None, None


@functools.lru_cache(maxsize=1)
def _last_curve(model, m: int, scales: tuple) -> np.ndarray:
    """expected_curve, kept for the process: `bias` after `expected` on
    the same model, m and grid evaluates nothing. A model built from JSON
    is a hashable package dataclass, equal to one of the same values
    whatever their number types, and no caller writes to the curve."""
    return expected_curve(model, m, scales)


def cmd_expected(args) -> int:
    model = _model(args)
    scales = _scales(args)
    hurst = args.hurst
    if hurst is None:
        hurst = getattr(model, "hurst", None)
    # the whole curve before the output is opened, so that a model that
    # fails at some scale leaves no partial file, and before lambda, so
    # that an order the curve refuses is refused before its d_q are derived
    ef2 = _last_curve(model, args.order, tuple(scales.tolist()))
    lam = asymptotic_lambda(args.order, hurst) if hurst is not None else None
    _write_csv(args.out, args, ["s", "EF2", "lambda_s2H", "K2"],
               _expected_rows(scales, ef2, hurst, lam))
    return 0


def cmd_bias(args) -> int:
    if args.hurst is None:
        print("dfakit bias: --hurst is required (flag or config file)",
              file=sys.stderr)
        return EXIT_USAGE
    m, scales = args.order, _scales(args)
    ef2 = _last_curve(scaling_model(args.hurst), m, tuple(scales.tolist()))
    lam = asymptotic_lambda(m, args.hurst)
    _write_csv(args.out, args, ["s", "K2", "K"],
               ((s, k2, np.sqrt(k2)) for s, _, _, k2
                in _expected_rows(scales, ef2, args.hurst, lam)),
               comments=[f"# lambda: {repr(lam)}"])
    return 0


def cmd_weights(args) -> int:
    if args.asymptotic:
        _write_json(args.out, {
            "order": args.order,
            "d": [str(x) for x in asymptotic_coefficients(args.order)],
            "inverse_gram": [[str(x) for x in row]
                             for row in asymptotic_inverse_gram(args.order)],
        })
        return 0
    if args.scale is None:
        raise DFAError("weights needs --scale unless --asymptotic is given")
    _write_csv(args.out, args, ["j", "G"],
               enumerate(weight_function(args.order, args.scale)))
    return 0


def _mask_for(args, n: int) -> np.ndarray | None:
    """The gap mask of --mask or of --gap-fraction (None if neither); the
    two exclude each other, so that the config line states how the
    artifact was made."""
    if args.mask and args.gap_fraction is not None:
        raise DFAError("--mask and --gap-fraction exclude each other")
    if args.mask:
        gs = _read_series(args.mask)
        if not (gs.gap_free and np.isin(gs.values, (0.0, 1.0)).all()):
            raise DFAError(f"mask file {args.mask} must hold only 0 and 1")
        if gs.values.shape != (n,):
            raise DFAError(f"mask file {args.mask} holds "
                           f"{gs.values.size} values, not {n}")
        return gs.values == 1.0
    if args.gap_fraction is not None:
        return block_gap_mask(n, args.gap_fraction, args.block_length,
                              args.seed + 10_000)
    return None


def cmd_simulate(args) -> int:
    x = sample(_model(args), args.length, args.seed, args.replicate).tolist()
    mask = _mask_for(args, args.length)
    if mask is not None:
        x = [v if ok else "NA" for v, ok in zip(x, mask.tolist())]
    _write_csv(args.out, args, None, zip(x))
    return 0


def _summary(f2: np.ndarray):
    """Per scale of an (R, S) array, NaN where undefined: the count, mean
    and 5% and 95% quantiles (linear, as np.quantile) of the defined
    values. The statistics of a column with count 0 mean nothing."""
    cols = np.ascontiguousarray(f2.T)
    count = (~np.isnan(cols)).sum(axis=1)
    mean = np.nansum(cols, axis=1) / np.maximum(count, 1)
    srt = np.sort(cols, axis=1)  # NaN sorts last
    rows = np.arange(cols.shape[0])
    last = np.maximum(count - 1, 0)
    quantiles = []
    for q in (0.05, 0.95):
        pos = last * q
        lo = np.floor(pos).astype(int)
        a, b = srt[rows, lo], srt[rows, np.minimum(lo + 1, last)]
        quantiles.append(a + (pos - lo) * (b - a))
    return count, mean, *quantiles


def cmd_mc(args) -> int:
    if args.ensemble < 1:
        raise DFAError(f"--ensemble needs R >= 1 replicates, got "
                       f"{args.ensemble}")
    model = _model(args)
    n, m = args.length, args.order
    scales = _scales(args, n)
    mask = _mask_for(args, n)
    samples = sample_stack(model, n, args.seed, range(args.ensemble))
    curves = ensemble(samples, mask, m, scales)
    rows, hurst = [], {}
    for tag, curve in curves.items():
        f2 = np.where(curve.defined, curve.f2, np.nan)
        for s, k, *stats in zip(scales, *_summary(f2)):
            rows.append([tag, int(s), *(stats if k else [None] * 3), int(k)])
        # one OLS per set of fitted scales; null where no fit exists
        _, ok, slope, _, _ = _hurst_fits(
            scales, curve.f2, *_fit_range(args, scales, curve.defined))
        hurst[tag] = [h if k else None
                      for h, k in zip(slope.tolist(), ok.tolist())]
    _write_csv(args.out, args, ["estimator", "scale", "mean_F2", "q05_F2",
                                "q95_F2", "n_defined"], rows)
    _write_json(args.hurst_out, hurst)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", "-m", type=int, default=2,
                   help="detrending order m (default 2)")
    p.add_argument("--scales", type=int, nargs="+",
                   help="explicit scale grid (default: log-spaced)")
    p.add_argument("--out", help="output CSV path (default stdout)")


def _add_sampling(p: argparse.ArgumentParser) -> None:
    """The model, seed and gap-mask flags of simulate and mc."""
    p.add_argument("--model", required=True,
                   help='model JSON, e.g. {"kind": "fgn", "hurst": 0.7}')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mask", help="CSV availability mask (0/1 per line)")
    p.add_argument("--gap-fraction", type=float,
                   help="share of points in random block gaps (not with "
                        "--mask)")
    p.add_argument("--block-length", type=float, default=12.0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; argparse keeps no state
    between parses. Never mutate it: _apply_config_file builds its own."""
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
    p.add_argument("--order", "-m", type=int, default=2,
                   help="detrending order m (default 2)")
    p.add_argument("--out", help="output CSV or JSON path (default stdout)")
    p.add_argument("--scale", "-s", type=int)
    p.add_argument("--asymptotic", action="store_true",
                   help="emit exact d_q vector as JSON instead of a G table")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("simulate", help="generate a synthetic series")
    _add_sampling(p)
    p.add_argument("--length", "-n", type=int, required=True)
    p.add_argument("--replicate", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mc", help="Monte Carlo ensemble study")
    _add_common(p)
    _add_sampling(p)
    p.add_argument("--length", "-n", type=int, default=1368)
    p.add_argument("--ensemble", type=int, default=500)
    p.add_argument("--fit-range", type=int, nargs=2, metavar=("SMIN", "SMAX"))
    p.add_argument("--hurst-out", help="Hurst samples JSON (default stdout)")
    p.set_defaults(func=cmd_mc)
    return parser


#: the JSON types a config value may take, by the type of its flag
_JSON_TYPES = {int: int, float: (int, float), None: str}


def _fits(action: argparse.Action, value) -> bool:
    """Whether a config value is one its flag could have parsed to."""
    if isinstance(action, argparse._StoreTrueAction):
        return isinstance(value, bool)
    many = action.nargs is not None
    if many and not (isinstance(value, list) and (
            len(value) == action.nargs or action.nargs == "+" and value)):
        return False
    return all(isinstance(v, _JSON_TYPES[action.type])
               and not isinstance(v, bool) and v in (action.choices or [v])
               for v in (value if many else [value]))


def _apply_config_file(args, argv) -> argparse.Namespace:
    """Parse again, on a parser of its own, with the config file's values
    as subcommand defaults, so that any explicit flag, in any spelling,
    wins. Each value must fit its flag's type, nargs and choices."""
    if not args.config:
        return args
    with open(args.config) as fh:
        defaults = json.load(fh)
    if not isinstance(defaults, dict):
        raise DFAError(f"config file {args.config} must hold a JSON object")
    parser = build_parser.__wrapped__()
    sub_action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    subparser = sub_action.choices[args.command]
    actions = {a.dest: a for a in parser._actions + subparser._actions}
    for key, value in defaults.items():
        if key not in actions or not _fits(actions[key], value):
            raise DFAError(f"config key {key!r}: {value!r} is not a value "
                           f"of any flag of {args.command}")
    subparser.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    code, new = 1, []  # code 1 if an exception escapes
    try:
        args = _apply_config_file(args, argv)
        # the outputs this run creates, removed if it fails
        new = [path for path in (args.out, getattr(args, "hurst_out", None))
               if path and not os.path.lexists(path)]
        # before any input is read or drawn
        s_min, s_max = getattr(args, "fit_range", None) or (0, 0)
        if s_min > s_max:
            raise DFAError(f"--fit-range {s_min} {s_max}: SMIN > SMAX")
        code = args.func(args)
    except (OSError, csv.Error) as exc:
        print(f"dfakit: i/o error: {exc}", file=sys.stderr)
        code = EXIT_IO
    except (DFAError, ValueError, ArithmeticError, MemoryError,
            json.JSONDecodeError) as exc:
        # a bare MemoryError carries no text
        print(f"dfakit: {str(exc) or type(exc).__name__}", file=sys.stderr)
        code = EXIT_NUMERIC
    finally:
        for path in new if code else ():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
