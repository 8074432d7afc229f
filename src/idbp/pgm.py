"""Binary PGM (P5, maxval 255) reading and writing.

Round trips of integer-valued grids are bit-exact.  Saving clamps to
[0, 255] and rounds halves away from zero; loading returns float64 grids.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .grid import as_grid


class PgmFormatError(ValueError):
    """Malformed or unsupported PGM content."""


# A header token, or a # comment that runs to the end of its line
_HEADER_TOKEN = re.compile(rb"#[^\r\n]*|\S+")


def _read_tokens(blob: bytes, count: int) -> tuple[list[bytes], int]:
    """First `count` whitespace-separated header tokens, skipping # comments.

    Returns the tokens and the offset just past the single whitespace byte
    that terminates the last token.  The scan stops there, so it never reads
    the payload.
    """
    found = (m for m in _HEADER_TOKEN.finditer(blob) if not m[0].startswith(b"#"))
    matches = list(itertools.islice(found, count))
    if len(matches) < count:
        raise PgmFormatError("truncated header")
    return [m[0] for m in matches], matches[-1].end() + 1


def load_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    # the magic is the first header token, at the first byte
    magic = _HEADER_TOKEN.match(blob)
    if magic is None or magic[0] != b"P5":
        raise PgmFormatError("not a binary PGM (missing P5 magic)")
    tokens, offset = _read_tokens(blob, 4)
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise PgmFormatError(f"non-numeric header field: {exc}") from exc
    if width <= 0 or height <= 0:
        raise PgmFormatError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise PgmFormatError(f"unsupported maxval {maxval} (only 255)")
    payload = blob[offset : offset + width * height]
    if len(payload) != width * height:
        raise PgmFormatError(
            f"truncated payload: expected {width * height} bytes, got {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return pixels.astype(np.float64)


def save_pgm(image, path) -> None:
    arr = as_grid(image)
    clipped = np.clip(arr, 0.0, 255.0)
    quantised = np.floor(clipped + 0.5).astype(np.uint8)  # half away from zero on [0, 255]
    height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (width, height))
        fh.write(quantised.tobytes())
