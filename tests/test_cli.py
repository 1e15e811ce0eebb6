import json
import re
from collections import Counter

import numpy as np
import pytest

import kgard.core
import kgard.experiments
from kgard.cli import main
from kgard.core import KgardConfig, KgardSolver, NumericalError
from kgard.denoise import denoise_image
from kgard.experiments import run_monte_carlo
from kgard.kernel import KernelParams, gram_matrix
from kgard.noise import NoiseSpec
from kgard.pgm import read_pgm_file, write_pgm_file


def _bump_pgm(path, n=24):
    xx, yy = np.meshgrid(np.linspace(-1, 1, n), np.linspace(-1, 1, n))
    img = np.round(60 + 10 * np.exp(-(xx**2 + yy**2) / 0.5))
    write_pgm_file(path, img)
    return img


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("regress", "experiment", "sweep", "corrupt-image", "denoise", "psnr"):
        assert cmd in out


def test_subcommand_help_lists_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["denoise", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--roi", "--core", "--e0", "--sigma", "--lambda0", "--threads"):
        assert flag in out


def test_unknown_option_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["psnr", "--a", "x", "--b", "y", "--bogus", "1"])
    assert exc.value.code == 2


def test_missing_file_is_io_error(tmp_path, capsys):
    code = main(["psnr", "--a", str(tmp_path / "no.pgm"), "--b", str(tmp_path / "no.pgm")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: io:")


def test_bad_pgm_is_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6\n1 1\n255\n\x00")
    code = main(["psnr", "--a", str(bad), "--b", str(bad)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: format:")


def test_psnr_identical_prints_inf(tmp_path, capsys):
    p = tmp_path / "img.pgm"
    _bump_pgm(p)
    assert main(["psnr", "--a", str(p), "--b", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "inf"


def test_invalid_argument_value_exits_2(tmp_path, capsys):
    p = tmp_path / "img.pgm"
    _bump_pgm(p)
    code = main(
        ["corrupt-image", "--in", str(p), "--out", str(tmp_path / "o.pgm"),
         "--fraction", "1.5"]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: argument:")


def test_corrupt_then_denoise_round_trip(tmp_path, capsys):
    src = tmp_path / "src.pgm"
    img = _bump_pgm(src)
    noisy = tmp_path / "noisy.pgm"
    mask = tmp_path / "mask.pgm"
    assert main(
        ["corrupt-image", "--in", str(src), "--out", str(noisy),
         "--fraction", "0.08", "--magnitude", "100", "--seed", "4",
         "--mask-out", str(mask)]
    ) == 0
    clean = tmp_path / "clean.pgm"
    outliers = tmp_path / "outliers.pgm"
    assert main(
        ["denoise", "--in", str(noisy), "--out", str(clean),
         "--outliers", str(outliers)]
    ) == 0
    restored = read_pgm_file(clean)
    assert np.mean((restored - img) ** 2) < np.mean((read_pgm_file(noisy) - img) ** 2)
    # flagged pixels should overlap the injected mask substantially
    flagged = read_pgm_file(outliers) > 0
    injected = read_pgm_file(mask) > 0
    assert np.count_nonzero(flagged & injected) >= 0.9 * np.count_nonzero(injected)


def test_experiment_writes_csv(tmp_path, capsys):
    out = tmp_path / "trials.csv"
    code = main(
        ["experiment", "--protocol", "sinc1d", "--snr-db", "20",
         "--outlier-frac", "0.05", "--lambda", "0.2", "--epsilon", "10",
         "--trials", "3", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,mse,correct,wrong,seconds,stop_reason"
    assert len(lines) == 4
    assert all(line.split(",")[5] in ("threshold", "pivot", "cap") for line in lines[1:])
    # each row holds its trial's fields, every float as its repr; only
    # the measured seconds differ between runs
    _, trials = run_monte_carlo(
        "sinc1d",
        NoiseSpec(inlier_snr_db=20.0, impulse_fraction=0.05),
        KgardConfig(lam=0.2, epsilon=10.0),
        trials=3,
        base_seed=7,
    )
    for line, trial in zip(lines[1:], trials):
        seed, mse, correct, wrong, seconds, reason = line.split(",")
        assert [seed, mse, correct, wrong, reason] == [
            str(trial.seed), repr(trial.mse_validation), repr(trial.correct_fraction),
            repr(trial.wrong_fraction), trial.stop_reason,
        ]
        assert float(seconds) > 0
    out = capsys.readouterr().out
    assert "mean_mse" in out
    counts = re.search(r"threshold=(\d+) pivot=(\d+) cap=(\d+)", out)
    assert sum(map(int, counts.groups())) == 3
    # the setup time is printed next to the mean fit time
    times = re.search(r"mean_time=(\S+)s setup_time=(\S+)s", out)
    assert float(times.group(2)) > 0


def test_denoise_diagnostics_report_stop_reasons(tmp_path, capsys):
    src = tmp_path / "src.pgm"
    _bump_pgm(src, n=16)
    diag = tmp_path / "diag.json"
    assert main(
        ["denoise", "--in", str(src), "--out", str(tmp_path / "out.pgm"),
         "--diagnostics", str(diag)]
    ) == 0
    rois = json.loads(diag.read_text())
    assert len(rois) == 4
    for roi in rois:
        assert roi["stop_reason"] in ("threshold", "pivot", "cap")
        assert "failed" not in roi and "iterations" not in roi
    out = capsys.readouterr().out
    summary = re.search(r"\(threshold=(\d+) pivot=(\d+) cap=(\d+)\)", out)
    counts = dict(zip(("threshold", "pivot", "cap"), map(int, summary.groups())))
    assert sum(counts.values()) == len(rois)
    reasons = Counter(roi["stop_reason"] for roi in rois)
    assert counts == {reason: reasons[reason] for reason in counts}


def test_denoise_summary_counts_the_outlier_map(tmp_path, capsys):
    # overlapping ROI halos select the same impulse more than once; the
    # summary counts the pixels the outlier map flags
    img = _bump_pgm(tmp_path / "clean.pgm", n=32)
    rng = np.random.default_rng(3)
    img.ravel()[rng.choice(img.size, size=100, replace=False)] += 100.0
    noisy = tmp_path / "noisy.pgm"
    write_pgm_file(noisy, img)
    assert main(["denoise", "--in", str(noisy), "--out", str(tmp_path / "out.pgm")]) == 0
    flagged = int(re.search(r"(\d+) outliers flagged", capsys.readouterr().out).group(1))
    assert flagged == np.count_nonzero(denoise_image(read_pgm_file(noisy)).outlier_map)


def test_experiment_stable_args_must_pair(tmp_path, capsys):
    code = main(
        ["experiment", "--protocol", "sinc1d", "--stable-alpha", "1.5",
         "--lambda", "0.2", "--epsilon", "10", "--trials", "1",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: argument:")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--snr-db", "4000"], "inlier_snr_db must be finite"),
        (["--snr-db", "-4000"], "inlier_snr_db must be finite"),
        (["--snr-db", "nan"], "inlier_snr_db must be finite"),
        (["--inlier-sigma", "inf"], "inlier_sigma must be positive and finite"),
        (["--magnitude", "nan"], "impulse_magnitude must be nonnegative and finite"),
        (["--stable-alpha", "1.5", "--stable-gamma", "inf"],
         "gamma_scale must be positive and finite"),
    ],
    ids=["snr-overflow", "snr-underflow", "snr-nan", "sigma-inf", "magnitude-nan",
         "gamma-inf"],
)
def test_experiment_noise_that_cannot_be_drawn_exits_2(tmp_path, capsys, args, message):
    out = tmp_path / "trials.csv"
    argv = ["experiment", "--protocol", "sinc1d", "--outlier-frac", "0.05",
            "--lambda", "0.2", "--epsilon", "10", "--trials", "2", "--out", str(out)]
    assert main(argv + args) == 2
    assert capsys.readouterr().err.startswith(f"error: argument: {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--magnitude", "inf"], "impulse_magnitude must be nonnegative and finite"),
        (["--snr-db", "4000"], "inlier_snr_db must be finite"),
    ],
    ids=["magnitude-inf", "snr-overflow"],
)
def test_corrupt_image_noise_that_cannot_be_drawn_exits_2(tmp_path, capsys, args, message):
    src = tmp_path / "src.pgm"
    _bump_pgm(src)
    out, mask = tmp_path / "out.pgm", tmp_path / "mask.pgm"
    argv = ["corrupt-image", "--in", str(src), "--out", str(out), "--fraction", "0.1",
            "--mask-out", str(mask)]
    assert main(argv + args) == 2
    assert capsys.readouterr().err.startswith(f"error: argument: {message}")
    assert not out.exists() and not mask.exists()


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--magnitudes", "600", "--trials", "3", "--seed", "0",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "magnitude,mean_correct,mean_wrong,bound_hold_rate"
    assert len(lines) == 2


@pytest.mark.parametrize("fraction", ["0.001", "nan", "0.995"])
def test_sweep_fraction_without_impulses_to_place_exits_2(tmp_path, capsys, fraction):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--magnitudes", "600", "--trials", "2", "--fraction", fraction,
            "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument: fraction must be finite")
    assert f"got {float(fraction)}" in err
    assert not out.exists()


@pytest.mark.parametrize("magnitudes", ["100,nan", "100,-1", "100,inf"])
def test_sweep_bad_magnitude_exits_2_before_any_work(tmp_path, capsys, monkeypatch, magnitudes):
    def boom(*args, **kwargs):
        raise AssertionError("the sweep built its Gram matrix")

    monkeypatch.setattr(kgard.experiments, "gram_matrix", boom)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--magnitudes", magnitudes, "--trials", "2", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument: impulse_magnitude must be nonnegative and finite")
    assert not out.exists()


def test_regress_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(0)
    x = np.linspace(0, 1, 40)
    y = np.sin(2 * np.pi * x)
    y[13] += 25.0
    csv_in = tmp_path / "data.csv"
    csv_in.write_text(
        "x1,y\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)) + "\n"
    )
    out = tmp_path / "fit.csv"
    code = main(
        ["regress", "--in", str(csv_in), "--out", str(out), "--sigma", "0.2",
         "--lambda", "0.05", "--epsilon", "1.0"]
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "index,y,fitted,outlier"
    outlier_col = [float(r.split(",")[3]) for r in rows[1:]]
    assert abs(outlier_col[13]) > 10.0
    assert sum(1 for v in outlier_col if v != 0.0) <= 3
    out = capsys.readouterr().out
    assert "stop_reason=threshold," in out
    fit = KgardSolver(gram_matrix(x, KernelParams(0.2)), 0.05).fit(y[None], epsilon=1.0)
    assert f"final residual {fit.residual_norm[0]:.6g}" in out
    k = fit.selections[0]
    expected = np.zeros(x.size)
    expected[fit.support[0, :k]] = fit.outliers[0, :k]
    assert outlier_col == expected.tolist()


def test_regress_header_names_are_stripped(tmp_path, capsys):
    x = np.linspace(0, 1, 20)
    y = np.cos(3 * x)
    y[7] -= 20.0
    body = "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)) + "\n"
    outputs = {}
    for header in ("x,y", "x, y", " x , y "):
        csv_in = tmp_path / "data.csv"
        csv_in.write_text(header + "\n" + body)
        out = tmp_path / "fit.csv"
        code = main(
            ["regress", "--in", str(csv_in), "--out", str(out), "--sigma", "0.2",
             "--lambda", "0.05", "--epsilon", "1.0"]
        )
        assert code == 0, capsys.readouterr().err
        outputs[header] = (out.read_text(), capsys.readouterr().out)
    assert outputs["x, y"] == outputs["x,y"]
    assert outputs[" x , y "] == outputs["x,y"]


def test_regress_non_finite_input_is_argument_error(tmp_path, capsys):
    csv_in = tmp_path / "data.csv"
    csv_in.write_text("x1,y\n0.0,1.0\nnan,2.0\n1.0,3.0\n")
    out = tmp_path / "fit.csv"
    code = main(
        ["regress", "--in", str(csv_in), "--out", str(out), "--sigma", "0.2",
         "--lambda", "0.05", "--epsilon", "1.0"]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: argument: points must be finite")
    assert not out.exists()


@pytest.mark.parametrize("ragged", ["1.0", "1.0,3.0,9.0"], ids=["short", "long"])
def test_regress_ragged_row_is_argument_error(tmp_path, capsys, ragged):
    csv_in = tmp_path / "data.csv"
    csv_in.write_text(f"x1,y\n0.0,1.0\n{ragged}\n2.0,3.0\n")
    out = tmp_path / "fit.csv"
    code = main(
        ["regress", "--in", str(csv_in), "--out", str(out), "--sigma", "0.2",
         "--lambda", "0.05", "--epsilon", "1.0"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument: CSV ")
    assert "line 3 has" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "data, line, column, cell",
    [
        ("x1,y\n0.0,1.0\n1.0,abc\n", 3, "y", "abc"),
        ("x1,x2,y\n0.0,0.0,1.0\n1.0,1.0,2.0\n2.0,,3.0\n", 4, "x2", ""),
    ],
    ids=["target", "empty-input"],
)
def test_regress_non_numeric_cell_is_argument_error(
    tmp_path, capsys, data, line, column, cell
):
    csv_in = tmp_path / "data.csv"
    csv_in.write_text(data)
    out = tmp_path / "fit.csv"
    code = main(
        ["regress", "--in", str(csv_in), "--out", str(out), "--sigma", "0.2",
         "--lambda", "0.05", "--epsilon", "1.0"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument: CSV ")
    assert f"line {line} column {column!r}: {cell!r} is not a number" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["experiment", "--protocol", "sinc1d", "--lambda", "0.2", "--epsilon", "10",
         "--trials", "2"],
        ["sweep", "--magnitudes", "300", "--trials", "2"],
        ["denoise", "--in", "{src}"],
    ],
    ids=["experiment", "sweep", "denoise"],
)
def test_threads_below_one_exits_2(tmp_path, capsys, args):
    src = tmp_path / "src.pgm"
    _bump_pgm(src)
    out = tmp_path / "out"
    argv = [a.format(src=src) for a in args] + ["--out", str(out), "--threads", "-3"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: argument: threads must be >= 1")
    assert not out.exists()


@pytest.mark.parametrize(
    "command,sigma",
    [("regress", "inf"), ("regress", "1e200"), ("denoise", "inf")],
    ids=["regress-inf", "regress-overflow", "denoise-inf"],
)
def test_bad_sigma_exits_2(tmp_path, capsys, command, sigma):
    extra = []
    if command == "regress":
        src = tmp_path / "data.csv"
        src.write_text("x1,y\n0.0,1.0\n0.5,2.0\n1.0,3.0\n")
        extra = ["--lambda", "0.05", "--epsilon", "1.0"]
    else:
        src = tmp_path / "src.pgm"
        _bump_pgm(src)
    out = tmp_path / "out"
    argv = [command, "--in", str(src), "--out", str(out), "--sigma", sigma, *extra]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: argument: sigma must be positive")
    assert not out.exists()


def test_denoise_infinite_lambda0_exits_2(tmp_path, capsys):
    src = tmp_path / "src.pgm"
    _bump_pgm(src)
    out = tmp_path / "out.pgm"
    assert main(["denoise", "--in", str(src), "--out", str(out), "--lambda0", "inf"]) == 2
    assert capsys.readouterr().err.startswith("error: argument: lambda0 must be positive")
    assert not out.exists()


@pytest.mark.parametrize(
    "value,message",
    [
        ("abc", "argument --threads: invalid int value: 'abc'"),
        ("-3", "error: argument: threads must be >= 1"),
    ],
    ids=["not-int", "below-one"],
)
def test_kgard_threads_env_validated_like_flag(
    tmp_path, capsys, monkeypatch, value, message
):
    monkeypatch.setenv("KGARD_THREADS", value)
    out = tmp_path / "s.csv"
    try:
        code = main(
            ["sweep", "--magnitudes", "300", "--trials", "2", "--out", str(out)]
        )
    except SystemExit as exc:  # argparse rejects the default like a bad flag value
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_experiment_setup_failure_is_numerical_error(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise NumericalError("forced setup failure", pivot=0)

    monkeypatch.setattr(kgard.core, "_cholesky", boom)
    out = tmp_path / "trials.csv"
    code = main(
        ["experiment", "--protocol", "lattice2d", "--inlier-sigma", "3",
         "--outlier-frac", "0.05", "--magnitude", "40", "--lambda", "0.15",
         "--epsilon", "46", "--trials", "2", "--out", str(out)]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: numerical:")
    assert not out.exists()
