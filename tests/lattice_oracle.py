"""Scalar lattice oracles: one site at a time, in plain Python.

The package computes coordinates, ordinals and weights vectorized
(`speclab.lattice.site_coords`, `weights_array`, ...); these reference
versions spell out the same definitions site by site for the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from speclab.lattice import DEFAULT_SITE_CAP, BoxSpec, CapacityError


@dataclass(frozen=True)
class SiteIndex:
    """A lattice site together with its lexicographic ordinal."""

    site: tuple[int, ...]
    ordinal: int


def ordinal_of(spec: BoxSpec, site: tuple[int, ...]) -> int:
    """Lexicographic ordinal of a site (first coordinate most significant)."""
    if len(site) != spec.dimension:
        raise ValueError("site dimension mismatch")
    L, side = spec.radius, spec.side
    ordinal = 0
    for c in site:
        if abs(c) > L:
            raise ValueError(f"site {site} outside box of radius {L}")
        ordinal = ordinal * side + (c + L)
    return ordinal


def site_of(spec: BoxSpec, ordinal: int) -> tuple[int, ...]:
    """Inverse of :func:`ordinal_of`."""
    if not 0 <= ordinal < spec.site_count:
        raise ValueError(f"ordinal {ordinal} out of range")
    L, side = spec.radius, spec.side
    coords = []
    for _ in range(spec.dimension):
        ordinal, digit = divmod(ordinal, side)
        coords.append(digit - L)
    return tuple(reversed(coords))


def enumerate_box(spec: BoxSpec, site_cap: int = DEFAULT_SITE_CAP) -> Iterator[SiteIndex]:
    """Yield all sites of the box in lexicographic ordinal order."""
    if spec.site_count > site_cap:
        raise CapacityError(f"box with {spec.site_count} sites exceeds cap {site_cap}")
    for ordinal in range(spec.site_count):
        yield SiteIndex(site=site_of(spec, ordinal), ordinal=ordinal)


def site_norm(site: np.ndarray, norm_kind: str) -> np.ndarray:
    """|n| for one site (1-d array) or many sites (2-d array, one per row)."""
    site = np.asarray(site, dtype=np.float64)
    axis = site.ndim - 1
    if norm_kind == "euclidean":
        return np.sqrt(np.sum(site * site, axis=axis))
    if norm_kind == "sup":
        return np.max(np.abs(site), axis=axis)
    raise ValueError(f"unknown norm_kind {norm_kind!r}")


def site_weight(site, alpha: float, norm_kind: str) -> float:
    """Decay weight (1 + |n|)**alpha of a single site; equals 1 when alpha=0.

    The power is taken on a one-element array: numpy's array loop for `**`
    may round differently from the C library's scalar pow, and the package
    takes it on arrays.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return float(((1.0 + np.atleast_1d(site_norm(site, norm_kind))) ** alpha)[0])
