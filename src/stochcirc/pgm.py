"""Minimal binary PGM (P5) reader/writer, 8-bit grayscale only."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise ConfigError(f"{path}: not a binary PGM (P5) file")
    # header tokens: magic, width, height, maxval; comments start with '#'
    tokens = []
    i = 2
    while len(tokens) < 3:
        while i < len(data) and data[i:i + 1].isspace():
            i += 1
        if data[i:i + 1] == b"#":
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < len(data) and not data[i:i + 1].isspace():
            i += 1
        tokens.append(data[start:i])
    i += 1  # single whitespace after maxval
    if not all(t.isdigit() for t in tokens):  # a field missing, signed or not a number
        raise ConfigError(f"{path}: malformed PGM header {b' '.join(tokens)!r}")
    width, height, maxval = (int(t) for t in tokens)
    if maxval > 255:
        raise ConfigError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    pixels = np.frombuffer(data[i:i + width * height], dtype=np.uint8)
    if pixels.size != width * height:
        raise ConfigError(f"{path}: truncated pixel data")
    return pixels.reshape(height, width).copy()


def write_pgm(path, image: np.ndarray):
    """Write a 2-D image of values in [0, 255] as an 8-bit P5 file, maxval 255."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ConfigError("PGM image must be 2-D")
    if image.min() < 0 or image.max() > 255:
        raise ConfigError("pixel values outside [0, 255]")
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(image.astype(np.uint8).tobytes())
