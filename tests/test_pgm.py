import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kgard.pgm import PgmFormatError, quantize, read_pgm, write_pgm, write_pgm_file


def test_round_trip_canonical_header():
    img = np.arange(12, dtype=float).reshape(3, 4) * 20
    data = write_pgm(img)
    assert data.startswith(b"P5\n4 3\n255\n")
    again = read_pgm(data)
    assert np.array_equal(again, img)
    assert write_pgm(again) == data


@given(arrays(np.uint8, st.tuples(st.integers(1, 24), st.integers(1, 24))))
def test_round_trip_random_uint8_images(pixels):
    data = write_pgm(pixels)
    again = read_pgm(data)
    assert np.array_equal(again, pixels)
    assert write_pgm(again) == data


def test_tiny_payload_values():
    data = b"P5\n2 1\n255\n" + bytes([0, 255])
    img = read_pgm(data)
    assert img.shape == (1, 2)
    assert img.tolist() == [[0.0, 255.0]]


def test_header_comments_allowed():
    data = b"P5\n# a comment\n2 2\n# another\n255\n" + bytes([1, 2, 3, 4])
    assert read_pgm(data).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_wrong_magic_rejected():
    with pytest.raises(PgmFormatError):
        read_pgm(b"P6\n1 1\n255\n\x00")


def test_wrong_maxval_rejected():
    with pytest.raises(PgmFormatError) as err:
        read_pgm(b"P5\n1 1\n65535\n\x00\x00")
    assert err.value.offset >= 0


def test_truncated_payload_reports_offset():
    data = b"P5\n3 3\n255\n" + bytes([0] * 4)
    with pytest.raises(PgmFormatError) as err:
        read_pgm(data)
    assert "truncated" in str(err.value)
    assert err.value.offset == len(data)


def test_quantization_rules():
    assert quantize(np.array([300.0]))[0] == 255  # clamp high
    assert quantize(np.array([-4.2]))[0] == 0  # clamp low
    assert quantize(np.array([127.5]))[0] == 128  # half away from zero
    assert quantize(np.array([126.5]))[0] == 127
    assert quantize(np.array([0.4]))[0] == 0


def test_quantization_idempotence():
    rng = np.random.default_rng(0)
    img = rng.uniform(-50, 300, size=(9, 7))
    once = write_pgm(img)
    assert write_pgm(read_pgm(once)) == once


def test_write_rejects_bad_shapes():
    with pytest.raises(ValueError):
        write_pgm(np.zeros(5))
    with pytest.raises(ValueError):
        write_pgm(np.zeros((0, 3)))


def test_write_rejects_non_finite_pixels():
    with pytest.raises(ValueError, match="finite"):
        write_pgm([[np.nan, 1.0]])


def test_write_file_leaves_no_file_for_invalid_image(tmp_path):
    path = tmp_path / "out.pgm"
    with pytest.raises(ValueError, match="finite"):
        write_pgm_file(path, [[np.inf, 1.0]])
    assert not path.exists()
