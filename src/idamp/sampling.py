"""Seeded random draws used by the verifier sweeps and the benchmark harness."""

from __future__ import annotations

import math

import numpy as np


def unit_disk(rng: np.random.Generator, shape) -> np.ndarray:
    """Array of the given shape of independent uniform unit-disk entries."""
    radius = np.sqrt(rng.random(shape))
    theta = 2.0 * np.pi * rng.random(shape)
    return radius * np.exp(1j * theta)


def unit_disk_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """n x n matrix of independent uniform unit-disk entries."""
    return unit_disk(rng, (n, n))


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random n x n unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
