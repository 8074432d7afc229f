"""Deterministic synthetic test scenes.

The benchmark corpus of classic photographs must be supplied by the user;
these generated scenes stand in wherever the suite needs natural-looking
content (smooth shading, sharp edges, oriented texture) without shipping
image assets.
"""

from __future__ import annotations

import numpy as np


def synthetic_scene(height: int = 256, width: int = 256) -> np.ndarray:
    """Piecewise-smooth scene with edges, gradients, and texture, range 0-255."""
    # The scene is built from its two axes: x, and y as a column, which
    # broadcast to the grid wherever a term needs both. Every pixel gets the
    # same operations on the same values as on full index grids, so the bytes
    # do not depend on the broadcasting, while the texture takes height +
    # width sines and cosines and no temporary exceeds one image.
    y = np.arange(height) / max(height - 1, 1)
    x = np.arange(width) / max(width - 1, 1)
    column = y[:, np.newaxis]

    image = 70.0 + 90.0 * x + 40.0 * column  # sloped background

    image[(column - 0.34) ** 2 + (x - 0.30) ** 2 < 0.045] = 205.0  # disk

    # the box, the stripes and the ramp are a band of rows times a band of columns
    image[np.ix_(np.abs(y - 0.70) < 0.14, np.abs(x - 0.62) < 0.20)] = 35.0

    rows, cols = np.abs(y - 0.25) < 0.16, np.abs(x - 0.75) < 0.16
    image[np.ix_(rows, cols)] = 128.0 + 70.0 * np.sin(2.0 * np.pi * (8.0 * x[cols] + 3.0 * column[rows]))

    image[np.abs(y - 0.52) < 0.05] = 20.0 + 215.0 * x  # ramp band

    image += 8.0 * np.sin(2.0 * np.pi * 2.5 * column) * np.cos(2.0 * np.pi * 1.5 * x)
    return np.clip(image, 0.0, 255.0, out=image)
