"""Output-identity check: does a change move any output bit?

    python3 tools/identity.py --against REV

Runs one corpus of kgard outputs on two source trees, this checkout's
``src/`` and the ``src/`` of git revision REV, at one and at two
OpenBLAS threads, and compares every output with the first run's: REV
at one thread.

REV is extracted with ``git archive`` into a temporary directory.  Each
tree and thread count runs in its own child process, which imports
kgard from that tree's ``src/``; the children's environments differ only
in ``OPENBLAS_NUM_THREADS``.  The corpus inputs (the synthetic images of
``bench/workloads.py``, one of them with random-valued impulses, a
zero-block image whose ROIs stop on the threshold, the certificate's
truths and the points of one ``kgard regress`` run) are made once, in
this process, from this checkout, so every run reads the same bytes.
The corpus calls only public entry points whose signatures are stable,
so any recent revision can be compared.

Prints one SHA-256 per output (of its dtype, shape and bytes), marks
the outputs that differ, each with its largest absolute and relative
difference, and says for each tree whether its one- and two-thread runs
agree.  Exits 1 on any difference.  The
corpus functions also make a small corpus with the same outputs, in
seconds, which the tests run.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# the Monte-Carlo timing fields, left out: they differ from run to run
TIMING = {"wall_time_seconds", "mean_time", "setup_seconds"}
SWEEP_MAGNITUDES = [900.0, 0.0, 100.0, 600.0, 0.0]
BLAS_THREADS = (1, 2)


def _synthetic_image():
    """``synthetic_image`` of this checkout's ``bench/workloads.py``."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.synthetic_image


def make_inputs(tiny: bool) -> dict:
    """The corpus inputs as named arrays."""
    synthetic_image = _synthetic_image()
    inputs = {}
    for seed in (1,) if tiny else (1, 2, 31):
        for side in (16,) if tiny else (16, 64, 256):
            clean, noisy, _ = synthetic_image(np.random.default_rng(seed), side)
            inputs[f"image.seed{seed}.side{side}.clean"] = clean
            inputs[f"image.seed{seed}.side{side}.noisy"] = noisy
    # denoise_image fits 256 ROIs at a time: the paper's 512^2 is 16 full
    # blocks, and 200^2 (625 ROIs) two full blocks and a last one of 113
    for side in () if tiny else (512, 200):
        _, noisy, _ = synthetic_image(np.random.default_rng(1), side)
        inputs[f"image.seed1.side{side}.noisy"] = noisy
    if not tiny:
        # random-valued impulses, on which threshold rules differ: 10 % of
        # the seed-1 clean 64^2 pixels set to uniform integers in [0, 255]
        valued = inputs["image.seed1.side64.clean"].copy()
        rng = np.random.default_rng(1)
        idx = rng.choice(valued.size, size=round(0.1 * valued.size), replace=False)
        valued.ravel()[idx] = rng.integers(0, 256, size=idx.size)
        inputs["image.seed1.side64.random_valued"] = valued
        # a ramp whose left half is a zero block, plus +100 impulses from
        # none above row 10 to 35 % at the bottom: a ROI with at most 48
        # nonzero pixels selects them all and stops on the threshold, so
        # threshold stops come at many steps, from 0 selections to the cap
        zero_block = np.add.outer(np.arange(96), 2.0 * np.arange(80))
        zero_block[:, :40] = 0.0
        density = 0.35 * np.clip((np.arange(96) - 10) / 86, 0.0, 1.0)
        zero_block += 100.0 * (rng.random((96, 80)) < density[:, None])
        inputs["image.seed1.96x80.zero_block"] = zero_block
    # one stacked certificate check at the sweep's N = 100, over eight
    # orders of magnitude of theta
    rng = np.random.default_rng(5)
    inputs["bound.theta"] = rng.normal(0, 0.5, (8, 101)) * 10.0 ** np.arange(-4, 4)[:, None]
    u = np.zeros((8, 100))
    u[:, ::9] = rng.choice([-300.0, 300.0], (8, 12))
    inputs["bound.outliers"] = u
    # norms of 10 001 entries and more, past the 10 000 above which
    # OpenBLAS splits a dot over its threads
    inputs["bound.large.theta"] = rng.normal(0, 1, (40, 10002))
    inputs["bound.large.outliers"] = rng.normal(0, 1, (40, 10001))
    # a tiered batch on the 12 x 12 ROI lattice: rows with many impulses
    # run to the cap, the others stop on the threshold
    ys = rng.normal(0, 2, (6, 144))
    ys[::2, ::17] += 50.0
    inputs["fit.y"] = ys
    inputs["corrupt.truth"] = 20.0 * np.sinc(2.0 * np.pi * np.linspace(-1, 1, 199))
    # a curve with four impulses on the sweep's grid, for kgard regress
    inputs["regress.x"] = np.linspace(0.0, 1.0, 100)
    inputs["regress.y"] = np.sin(2.0 * np.pi * inputs["regress.x"]) + rng.normal(0, 0.1, 100)
    inputs["regress.y"][[13, 40, 41, 77]] += [25.0, -30.0, 20.0, 15.0]
    return inputs


def _fields(prefix: str, record, skip=()) -> dict:
    """One array per field of a dataclass instance."""
    return {
        f"{prefix}.{field.name}": np.asarray(getattr(record, field.name))
        for field in dataclasses.fields(record)
        if field.name not in skip
    }


def _records(prefix: str, records: list, skip=()) -> dict:
    """One array per dataclass field, stacked across ``records``."""
    return {
        f"{prefix}.{field.name}": np.array([getattr(r, field.name) for r in records])
        for field in dataclasses.fields(records[0])
        if field.name not in skip
    }


def _regress_fitted(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The ``fitted`` column that ``kgard regress`` writes for the points
    (x, y), through a temporary CSV, every float as its repr both ways."""
    from kgard.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        data, fit = Path(tmp) / "data.csv", Path(tmp) / "fit.csv"
        rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))
        data.write_text("x1,y\n" + rows)
        argv = ["regress", "--in", str(data), "--out", str(fit), "--sigma", "0.1",
                "--lambda", "0.001", "--epsilon", "1.0"]
        with contextlib.redirect_stdout(io.StringIO()):
            if main(argv):
                raise RuntimeError("kgard regress failed")
        return np.array([float(row.split(",")[2]) for row in fit.read_text().splitlines()[1:]])


def corpus(inputs: dict, tiny: bool) -> dict:
    """Every corpus output as a named array, from the kgard on sys.path."""
    import kgard
    from kgard.denoise import roi_lattice
    from kgard.noise import lattice_nodes

    out = {}
    for name, image in inputs.items():
        if name.startswith("image."):
            result = kgard.denoise_image(image)
            key = "denoise" + name[len("image"):]
            out[f"{key}.denoised"] = result.denoised
            out[f"{key}.outlier_map"] = result.outlier_map
            out[f"{key}.impulse_removed"] = result.impulse_removed
            pgm = kgard.write_pgm(result.denoised)
            out[f"{key}.pgm"] = np.frombuffer(pgm, dtype=np.uint8)
            out.update(_records(f"{key}.roi", result.diagnostics))

    trials = 3 if tiny else 100
    runs = {
        "sinc1d.snr": ("sinc1d", kgard.NoiseSpec(inlier_snr_db=20.0, impulse_fraction=0.1),
                       kgard.KgardConfig(lam=0.2, epsilon=10.0)),
        "sinc1d.stable": ("sinc1d", kgard.NoiseSpec(
            stable_params=kgard.StableParams(1.5, 0.5), impulse_fraction=0.1),
            kgard.KgardConfig(lam=0.2, epsilon=10.0)),
        "lattice2d": ("lattice2d", kgard.NoiseSpec(
            inlier_sigma=3.0, impulse_fraction=0.05, impulse_magnitude=40.0),
            kgard.KgardConfig(lam=0.15, epsilon=46.0)),
    }
    for key, (protocol, noise, config) in runs.items():
        stats, results = kgard.run_monte_carlo(protocol, noise, config, trials=trials)
        out.update(_records(f"{key}.trial", results, skip=TIMING))
        out.update(_fields(f"{key}.aggregate", stats, skip=TIMING))

    for base_seed in (0,) if tiny else (0, 1_000_000, 31_000_000):
        points = kgard.sweep_outlier_magnitude(
            SWEEP_MAGNITUDES, trials=3 if tiny else 60, base_seed=base_seed
        )
        out.update(_records(f"sweep.seed{base_seed}", points))

    grams = {
        "sweep": kgard.gram_matrix(np.linspace(0.0, 1.0, 100), kgard.KernelParams(0.1)),
        "roi": kgard.gram_matrix(roi_lattice(12), kgard.KernelParams(0.3)),
        "lattice256": kgard.gram_matrix(lattice_nodes()[1], kgard.KernelParams(0.2)),
        "lattice961": kgard.gram_matrix(lattice_nodes()[0], kgard.KernelParams(0.2)),
    }
    for name, gram in grams.items():
        out[f"gram.{name}"] = gram
        out[f"sigma_max.{name}"] = np.float64(kgard.design_sigma_max(gram))
        for lam in (0.15, 4000.0):
            diagnostics = kgard.spectral_diagnostics(gram, lam)
            out.update(_fields(f"spectral.{name}.lam{lam:g}", diagnostics))
    bound = kgard.theorem_check(
        kgard.design_sigma_max(grams["sweep"]), inputs["bound.theta"], inputs["bound.outliers"],
        4000.0,
    )
    out.update(_fields("bound", bound))
    large = kgard.theorem_check(
        1.0, inputs["bound.large.theta"], inputs["bound.large.outliers"], 1.0
    )
    out.update(_fields("bound.large", large))

    solver = kgard.KgardSolver(grams["roi"], [1.0, 5.0, 15.0])
    batch = solver.fit(inputs["fit.y"], epsilon=20.0, max_selections=12, tier=np.arange(6) % 3)
    out.update(_fields("fit", batch))

    families = {
        "impulses": kgard.NoiseSpec(impulse_fraction=0.1),
        "snr": kgard.NoiseSpec(inlier_snr_db=15.0, impulse_fraction=0.1),
        "sigma": kgard.NoiseSpec(inlier_sigma=2.0, impulse_fraction=0.2, impulse_magnitude=30.0),
        **{
            f"stable{alpha:g}": kgard.NoiseSpec(
                stable_params=kgard.StableParams(alpha, 0.5), impulse_fraction=0.1
            )
            for alpha in (0.5, 1.0, 1.5, 2.0)
        },
    }
    for name, spec in families.items():
        y, support, u = kgard.corrupt(inputs["corrupt.truth"], spec, kgard.rng_for(7))
        out[f"corrupt.{name}.y"], out[f"corrupt.{name}.support"] = y, support
        out[f"corrupt.{name}.outliers"] = u
    out["regress.fitted"] = _regress_fitted(inputs["regress.x"], inputs["regress.y"])
    return out


def digest(value: np.ndarray) -> str:
    value = np.asarray(value)
    h = hashlib.sha256(repr((value.dtype.str, value.shape)).encode())
    h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def _difference(a: np.ndarray, b: np.ndarray) -> str:
    """The largest absolute and relative difference of two arrays."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return f"dtype/shape {a.dtype}{a.shape} vs {b.dtype}{b.shape}"
    if a.dtype.kind not in "biuf":
        return f"{int(np.count_nonzero(a != b))} of {a.size} entries differ"
    a, b = a.astype(np.float64), b.astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        diff = np.where(same, 0.0, np.abs(a - b))
        rel = np.where(same, 0.0, diff / np.maximum(np.abs(a), np.abs(b)))
    return (
        f"{int(np.count_nonzero(~same))} of {a.size} entries differ; largest absolute "
        f"difference {np.nanmax(diff, initial=0.0):.3e}, largest relative difference "
        f"{np.nanmax(rel, initial=0.0):.3e}"
    )


def compare(runs: dict) -> tuple[list, list]:
    """Report lines and the names of the outputs that differ, comparing
    every run of ``runs`` (label -> outputs) with the first.  Each
    differing output is sized against the first run that differs from
    the reference.  Runs labelled TREE@THREADS are grouped by TREE, and
    each group of several runs gets one line saying whether they agree."""
    labels = list(runs)
    reference = runs[labels[0]]
    names = sorted(set().union(*runs.values()))
    digests = {label: {name: digest(v) for name, v in run.items()} for label, run in runs.items()}
    lines, differing = [], []
    for name in names:
        seen = [digests[label].get(name) for label in labels]
        if None not in seen and len(set(seen)) == 1:
            lines.append(f"{seen[0]}  {name}")
            continue
        others = [label for label, d in zip(labels[1:], seen[1:]) if d != seen[0]]
        lines.append(f"{'DIFFERS':<64}  {name}  ({', '.join(others)} vs {labels[0]})")
        first = others[0]
        if name not in reference or name not in runs[first]:
            detail = f"missing from {labels[0] if name not in reference else first}"
        else:
            detail = _difference(reference[name], runs[first][name])
        lines.append(f"  {name} in {first} vs {labels[0]}: {detail}")
        differing.append(name)
    trees = {}
    for label in labels:
        trees.setdefault(label.split("@")[0], []).append(label)
    for group in (group for group in trees.values() if len(group) > 1):
        split = [n for n in names if len({digests[label].get(n) for label in group}) > 1]
        verdict = (f"differ on {len(split)} of {len(names)} outputs: {', '.join(split)}"
                   if split else f"agree on all {len(names)} outputs")
        lines.append(f"{' and '.join(group)} {verdict}")
    return lines, differing


def _child(src: str, inputs_path: str, out_path: str, tiny: bool = False) -> None:
    """Runs the corpus on the inputs at ``inputs_path`` with the kgard of
    ``src`` and saves the outputs to ``out_path``."""
    sys.path.insert(0, src)
    import kgard

    if not Path(kgard.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"kgard imported from {kgard.__file__}, not from {src}")
    with np.load(inputs_path) as data:
        inputs = dict(data)
    np.savez(out_path, **corpus(inputs, tiny))


def _extract(rev: str, into: Path) -> Path:
    """``src/`` of git revision ``rev``, extracted under ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True, capture_output=True,
    ).stdout
    # the "data" filter exists from Python 3.10.12 and 3.11.4 on
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **safe)
    return into / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="git revision whose src/ is the reference")
    parser.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(*args.child)
        return 0
    if args.against is None:
        parser.error("the following arguments are required: --against")

    sys.path.insert(0, str(ROOT / "src"))  # bench/workloads.py imports kgard
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {args.against: _extract(args.against, tmp / "rev"), "checkout": ROOT / "src"}
        inputs_path = tmp / "inputs.npz"
        np.savez(inputs_path, **make_inputs(tiny=False))
        runs = {}
        for name, src in trees.items():
            for count in BLAS_THREADS:
                label = f"{name}@{count}"
                out_path = tmp / f"run{len(runs)}.npz"
                cmd = [sys.executable, __file__, "--child", str(src), str(inputs_path),
                       str(out_path)]
                env = dict(os.environ, OPENBLAS_NUM_THREADS=str(count))
                subprocess.run(cmd, check=True, env=env)
                with np.load(out_path) as data:
                    runs[label] = dict(data)
    lines, differing = compare(runs)
    print("\n".join(lines))
    total = len(set().union(*runs.values()))
    if differing:
        print(f"{len(differing)} of {total} outputs differ across {', '.join(runs)}")
        return 1
    print(f"all {total} outputs identical across {', '.join(runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
