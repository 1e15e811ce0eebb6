"""Command-line front end.

Subcommands: regress, experiment, sweep, corrupt-image, denoise, psnr.
Exit codes: 0 success, 2 argument errors, 1 runtime or numerical
errors.  Errors go to stderr with the prefix "error: <category>:".
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections import Counter

import numpy as np

from .core import KgardConfig, KgardSolver, NumericalError
from .denoise import RoiConfig, denoise_image, psnr
from .experiments import PROTOCOLS, run_monte_carlo, sweep_outlier_magnitude
from .kernel import KernelParams, gram_matrix
from .noise import NoiseSpec, StableParams, corrupt, rng_for
from .pgm import PgmFormatError, read_pgm_file, write_pgm_file


def _add_threads(p: argparse.ArgumentParser) -> None:
    # a string default goes through type=int like a command-line value
    p.add_argument(
        "--threads",
        type=int,
        default=os.environ.get("KGARD_THREADS") or "1",
        help="no effect: every command runs on one thread (default: KGARD_THREADS or 1)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgard",
        description="Robust kernel ridge regression with outlier identification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("regress", help="fit one dataset from CSV")
    p.add_argument("--in", dest="infile", required=True, help="input CSV (x1..xd, y)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--sigma", type=float, required=True, help="kernel width")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--stop-norm", choices=["l2", "linf"], default="l2")

    p = sub.add_parser("experiment", help="Monte-Carlo benchmark trials")
    p.add_argument("--protocol", choices=PROTOCOLS, required=True)
    p.add_argument("--snr-db", type=float, default=None, help="Gaussian inlier SNR")
    p.add_argument(
        "--inlier-sigma",
        type=float,
        default=None,
        help="fixed Gaussian inlier standard deviation",
    )
    p.add_argument("--outlier-frac", type=float, default=0.0)
    p.add_argument("--magnitude", type=float, default=15.0, help="impulse magnitude")
    p.add_argument("--stable-alpha", type=float, default=None)
    p.add_argument("--stable-gamma", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="per-trial CSV path")
    _add_threads(p)

    p = sub.add_parser("sweep", help="outlier-magnitude identification sweep")
    p.add_argument(
        "--magnitudes", required=True, help="comma-separated list, e.g. 100,300,600"
    )
    p.add_argument("--fraction", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    _add_threads(p)

    p = sub.add_parser("corrupt-image", help="add impulses to a PGM image")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--magnitude", type=float, default=100.0)
    p.add_argument("--snr-db", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mask-out", default=None, help="optional impulse-mask PGM path")

    p = sub.add_parser("denoise", help="tiled impulse-noise removal")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="denoised PGM path")
    p.add_argument("--outliers", default=None, help="outlier-map PGM path")
    p.add_argument(
        "--impulse-removed", default=None, help="input-minus-outliers PGM path"
    )
    p.add_argument("--sigma", type=float, default=0.3)
    p.add_argument("--lambda0", type=float, default=1.0)
    p.add_argument("--e0", type=float, default=40.0)
    p.add_argument("--roi", type=int, default=12)
    p.add_argument("--core", type=int, default=8)
    p.add_argument("--diagnostics", default=None, help="per-ROI JSON path")
    _add_threads(p)

    p = sub.add_parser("psnr", help="peak signal-to-noise ratio of two PGMs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    return parser


def _stop_counts(reasons) -> str:
    """How many fits stopped for each ``stop_reason``, in precedence order."""
    counts = Counter(reasons)
    return " ".join(f"{reason}={counts[reason]}" for reason in ("threshold", "pivot", "cap"))


def _write_csv(path, header, rows) -> None:
    """One header line, then one line per row; a Python float is written
    as its repr, so it reads back exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_dataset_csv(path) -> tuple:
    """The x columns as (N, d) inputs and the y column as (N,) targets."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"empty CSV file: {path}")
    header = [name.strip() for name in rows[0]]
    x_cols = [i for i, name in enumerate(header) if name.startswith("x")]
    try:
        y_col = header.index("y")
    except ValueError:
        raise ValueError(f"CSV {path} has no 'y' column") from None
    if not x_cols:
        raise ValueError(f"CSV {path} has no x columns")

    def cell(row, line, col) -> float:
        try:
            return float(row[col])
        except ValueError:
            raise ValueError(
                f"CSV {path} line {line} column {header[col]!r}: "
                f"{row[col]!r} is not a number"
            ) from None

    inputs, targets = [], []
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(
                f"CSV {path} line {line} has {len(row)} cells, the header has {len(header)}"
            )
        inputs.append([cell(row, line, i) for i in x_cols])
        targets.append(cell(row, line, y_col))
    return np.array(inputs), np.array(targets)


def _cmd_regress(args) -> int:
    inputs, targets = _read_dataset_csv(args.infile)
    fit = KgardSolver(gram_matrix(inputs, KernelParams(args.sigma)), args.lam).fit(
        targets[None], epsilon=args.epsilon, stop_norm=args.stop_norm
    )
    _, index, value = fit.selected()
    outliers = np.zeros(targets.size)
    outliers[index] = value
    fitted = targets - outliers - fit.residual[0]  # y = f + u + r
    columns = zip(targets.tolist(), fitted.tolist(), outliers.tolist())
    _write_csv(
        args.out,
        ["index", "y", "fitted", "outlier"],
        ([i, *values] for i, values in enumerate(columns)),
    )
    print(
        f"fit: {fit.selections[0]} outliers selected, "
        f"stop_reason={fit.stop_reason[0]}, "
        f"final residual {fit.residual_norm[0]:.6g}"
    )
    return 0


def _cmd_experiment(args) -> int:
    stable = None
    if (args.stable_alpha is None) != (args.stable_gamma is None):
        raise ValueError("--stable-alpha and --stable-gamma must be given together")
    if args.stable_alpha is not None:
        stable = StableParams(args.stable_alpha, args.stable_gamma)
    noise = NoiseSpec(
        inlier_snr_db=args.snr_db,
        inlier_sigma=args.inlier_sigma,
        impulse_fraction=args.outlier_frac,
        impulse_magnitude=args.magnitude,
        stable_params=stable,
    )
    config = KgardConfig(lam=args.lam, epsilon=args.epsilon)
    stats, results = run_monte_carlo(
        args.protocol,
        noise,
        config,
        trials=args.trials,
        base_seed=args.seed,
    )
    _write_csv(
        args.out,
        ["seed", "mse", "correct", "wrong", "seconds", "stop_reason"],
        (
            [r.seed, r.mse_validation, r.correct_fraction, r.wrong_fraction,
             r.wall_time_seconds, r.stop_reason]
            for r in results
        ),
    )
    print(
        f"trials={stats.trials} {_stop_counts(r.stop_reason for r in results)} "
        f"mean_mse={stats.mean_mse:.6g} std_mse={stats.std_mse:.6g} "
        f"mean_correct={stats.mean_correct:.4f} mean_wrong={stats.mean_wrong:.4f} "
        f"mean_time={stats.mean_time:.4g}s setup_time={stats.setup_seconds:.4g}s"
    )
    return 0


def _cmd_sweep(args) -> int:
    try:
        magnitudes = [float(tok) for tok in args.magnitudes.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad --magnitudes list: {args.magnitudes!r}") from None
    points = sweep_outlier_magnitude(
        magnitudes,
        fraction=args.fraction,
        trials=args.trials,
        base_seed=args.seed,
    )
    _write_csv(
        args.out,
        ["magnitude", "mean_correct", "mean_wrong", "bound_hold_rate"],
        ([pt.magnitude, pt.mean_correct, pt.mean_wrong, pt.bound_hold_rate] for pt in points),
    )
    for pt in points:
        print(
            f"magnitude={pt.magnitude:g} correct={pt.mean_correct:.4f} "
            f"wrong={pt.mean_wrong:.4f} hold={pt.bound_hold_rate:.4f}"
        )
    return 0


def _cmd_corrupt_image(args) -> int:
    img = read_pgm_file(args.infile)
    spec = NoiseSpec(
        inlier_snr_db=args.snr_db,
        impulse_fraction=args.fraction,
        impulse_magnitude=args.magnitude,
    )
    y, support, _ = corrupt(img.ravel(), spec, rng=rng_for(args.seed))
    write_pgm_file(args.out, y.reshape(img.shape))
    if args.mask_out is not None:
        mask = np.zeros(img.size)
        mask[support] = 255.0
        write_pgm_file(args.mask_out, mask.reshape(img.shape))
    print(f"corrupted {img.shape[1]}x{img.shape[0]} image: {support.size} impulses")
    return 0


def _cmd_denoise(args) -> int:
    img = read_pgm_file(args.infile)
    cfg = RoiConfig(
        roi_size=args.roi,
        core_size=args.core,
        sigma=args.sigma,
        lambda0=args.lambda0,
        e0=args.e0,
    )
    result = denoise_image(img, cfg)
    write_pgm_file(args.out, result.denoised)
    if args.outliers is not None:
        # |map|, so both impulse polarities show as bright pixels
        write_pgm_file(args.outliers, np.abs(result.outlier_map))
    if args.impulse_removed is not None:
        write_pgm_file(args.impulse_removed, result.impulse_removed)
    if args.diagnostics is not None:
        payload = [
            {
                "index": d.index,
                "origin": list(d.origin),
                "lambda": d.lam,
                "epsilon": d.epsilon,
                "outliers": d.outliers,
                "stop_reason": d.stop_reason,
            }
            for d in result.diagnostics
        ]
        with open(args.diagnostics, "w") as fh:
            json.dump(payload, fh, indent=2)
    print(
        f"denoised {len(result.diagnostics)} ROIs "
        f"({_stop_counts(d.stop_reason for d in result.diagnostics)}), "
        f"{np.count_nonzero(result.outlier_map)} outliers flagged"
    )
    return 0


def _cmd_psnr(args) -> int:
    value = psnr(read_pgm_file(args.a), read_pgm_file(args.b))
    print("inf" if math.isinf(value) else f"{value:.4f}")
    return 0


_HANDLERS = {
    "regress": _cmd_regress,
    "experiment": _cmd_experiment,
    "sweep": _cmd_sweep,
    "corrupt-image": _cmd_corrupt_image,
    "denoise": _cmd_denoise,
    "psnr": _cmd_psnr,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ValueError(f"threads must be >= 1, got {args.threads}")
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: argument: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 1
    except PgmFormatError as exc:
        print(f"error: format: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
