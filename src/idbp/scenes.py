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
    i, j = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    yy = i / max(height - 1, 1)
    xx = j / max(width - 1, 1)

    image = 70.0 + 90.0 * xx + 40.0 * yy  # sloped background

    disk = (yy - 0.34) ** 2 + (xx - 0.30) ** 2 < 0.045
    image[disk] = 205.0

    box = (np.abs(yy - 0.70) < 0.14) & (np.abs(xx - 0.62) < 0.20)
    image[box] = 35.0

    stripes = (np.abs(yy - 0.25) < 0.16) & (np.abs(xx - 0.75) < 0.16)
    image[stripes] = 128.0 + 70.0 * np.sin(2.0 * np.pi * (8.0 * xx[stripes] + 3.0 * yy[stripes]))

    ramp_band = np.abs(yy - 0.52) < 0.05
    image[ramp_band] = 20.0 + 215.0 * xx[ramp_band]

    image += 8.0 * np.sin(2.0 * np.pi * 2.5 * yy) * np.cos(2.0 * np.pi * 1.5 * xx)
    return np.clip(image, 0.0, 255.0)

