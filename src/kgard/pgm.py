"""Binary PGM (P5) reading and writing, bit-exact and 8-bit only.

Readers accept '#' comment lines anywhere in the header; writers emit
the canonical header "P5\\n<width> <height>\\n255\\n" so output files
are byte-identical across platforms.
"""

from __future__ import annotations

import numpy as np


class PgmFormatError(Exception):
    """Malformed PGM data.  ``offset`` is the byte position at fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments, return (token, position after it)
    n = len(data)
    while pos < n:
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise PgmFormatError("unexpected end of header", pos)
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, end = _next_token(data, pos)
    if not token.isdigit():
        raise PgmFormatError(f"invalid {what} {token!r}", pos)
    return int(token), end


def read_pgm(data: bytes) -> np.ndarray:
    """Parse binary PGM bytes into a (height, width) float array with
    values in [0, 255]."""
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise PgmFormatError(f"expected magic b'P5', got {magic!r}", 0)
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    maxval, pos = _int_token(data, pos, "maxval")
    if width < 1 or height < 1:
        raise PgmFormatError(f"invalid dimensions {width}x{height}", pos)
    if maxval != 255:
        raise PgmFormatError(f"maxval must be 255, got {maxval}", pos)
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise PgmFormatError("missing whitespace after maxval", pos)
    pos += 1  # exactly one whitespace byte separates header and payload
    expected = width * height
    payload = data[pos : pos + expected]
    if len(payload) < expected:
        raise PgmFormatError(
            f"payload truncated: expected {expected} bytes, got {len(payload)}",
            pos + len(payload),
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    return pixels.reshape(height, width)


def quantize(image) -> np.ndarray:
    """Round half away from zero, then clamp to [0, 255] uint8."""
    img = np.asarray(image, dtype=np.float64)
    rounded = np.sign(img) * np.floor(np.abs(img) + 0.5)
    return np.clip(rounded, 0.0, 255.0).astype(np.uint8)


def _as_image(image) -> np.ndarray:
    """``image`` as a nonempty 2-D float array of finite pixels."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2 or img.size == 0:
        raise ValueError(f"image must be a nonempty 2-D array, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise ValueError("image pixels must be finite")
    return img


def write_pgm(image) -> bytes:
    """Serialize an image to canonical binary PGM bytes."""
    img = _as_image(image)
    height, width = img.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + quantize(img).tobytes()


def read_pgm_file(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_pgm(fh.read())


def write_pgm_file(path, image) -> None:
    # serialized first, so an invalid image leaves no file behind
    data = write_pgm(image)
    with open(path, "wb") as fh:
        fh.write(data)
