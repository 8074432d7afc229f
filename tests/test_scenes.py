import tracemalloc

import numpy as np
import pytest

from idbp.scenes import synthetic_scene

# degenerate axes, odd sides both ways round, the workloads' sides, and a side
# above every workload's
SHAPES = [(1, 1), (1, 7), (7, 1), (2, 2), (61, 45), (45, 61), (128, 128), (256, 256), (300, 17), (512, 512)]


def _meshgrid_scene(height, width):
    """synthetic_scene on full index grids, kept as the oracle."""
    i, j = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    yy = i / max(height - 1, 1)
    xx = j / max(width - 1, 1)

    image = 70.0 + 90.0 * xx + 40.0 * yy

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


@pytest.mark.parametrize("shape", SHAPES, ids=[f"{h}x{w}" for h, w in SHAPES])
def test_scene_matches_the_meshgrid_scene_bytes(shape):
    got = synthetic_scene(*shape)
    expected = _meshgrid_scene(*shape)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.flags.c_contiguous
    assert got.tobytes() == expected.tobytes()


def test_scene_allocates_under_three_images():
    # the meshgrid scene peaks at 8.5 images: two index grids, two coordinate
    # grids and their full-grid masks and texture factors
    image_bytes = 256 * 256 * 8
    tracemalloc.start()
    try:
        synthetic_scene(256, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * image_bytes
