"""Random direction generation for perturbations."""

from __future__ import annotations

import math

import numpy as np


def sample_gaussian(rng: np.random.Generator, d: int) -> np.ndarray:
    """Draw a standard normal vector of length ``d``."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return rng.standard_normal(d)


def sample_unit_sphere(rng: np.random.Generator, d: int) -> np.ndarray:
    """Draw uniformly from the unit sphere (normalized Gaussian)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    while True:
        u = rng.standard_normal(d)
        norm = math.sqrt(u @ u)  # np.linalg.norm's value, without its wrapper
        # A zero draw has probability zero; guard anyway.
        if norm > 0:
            return u / norm


_SAMPLERS = {
    "sphere": sample_unit_sphere,
    "gaussian": sample_gaussian,
}


def get_sampler(name: str):
    try:
        return _SAMPLERS[name]
    except KeyError:
        raise ValueError(
            f"unknown direction distribution {name!r}; expected one of {sorted(_SAMPLERS)}"
        ) from None
