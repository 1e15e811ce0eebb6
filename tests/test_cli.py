import numpy as np
import pytest

import kgard.core
from kgard.cli import main
from kgard.core import NumericalError
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
    assert lines[0] == "seed,mse,correct,wrong,seconds,failed"
    assert len(lines) == 4
    assert "mean_mse" in capsys.readouterr().out


def test_experiment_stable_args_must_pair(tmp_path, capsys):
    code = main(
        ["experiment", "--protocol", "stable1d", "--stable-alpha", "1.5",
         "--lambda", "0.2", "--epsilon", "10", "--trials", "1",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: argument:")


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


def test_regress_non_finite_input_is_argument_error(tmp_path, capsys):
    csv_in = tmp_path / "data.csv"
    csv_in.write_text("x1,y\n0.0,1.0\nnan,2.0\n1.0,3.0\n")
    out = tmp_path / "fit.csv"
    code = main(
        ["regress", "--in", str(csv_in), "--out", str(out), "--sigma", "0.2",
         "--lambda", "0.05", "--epsilon", "1.0"]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: argument: dataset inputs must be finite"
    )
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
