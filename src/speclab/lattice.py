"""Finite cubic lattice boxes, site coordinates, and decay weights.

The box of radius L in dimension d is the set of integer vectors whose
coordinates all lie in [-L, L]; it has (2L+1)**d sites. Sites are indexed
lexicographically by coordinates so that every ordinal-based computation is
reproducible regardless of iteration strategy. Each site n carries a weight
(1 + |n|)**alpha, where |n| is either the euclidean or the sup norm.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

NORM_KINDS = ("euclidean", "sup")

# Hard stop against accidentally enumerating astronomically large boxes.
DEFAULT_SITE_CAP = 100_000_000


class CapacityError(Exception):
    """Raised when a box exceeds the configured site cap."""


@dataclass(frozen=True)
class BoxSpec:
    """Cube of radius `radius` in Z^dimension with a norm convention."""

    dimension: int
    radius: int
    norm_kind: str = "euclidean"

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.radius < 1:
            raise ValueError(f"radius must be >= 1, got {self.radius}")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {self.norm_kind!r}")

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def site_count(self) -> int:
        return self.side ** self.dimension


def check_capacity(spec: BoxSpec, site_cap: int = DEFAULT_SITE_CAP) -> None:
    if spec.site_count > site_cap:
        raise CapacityError(
            f"box with {spec.site_count} sites exceeds cap {site_cap}"
        )


def site_coords(spec: BoxSpec, ordinals: np.ndarray) -> np.ndarray:
    """(len(ordinals), d) int coordinates of sites given by ordinal.

    The ordinal is lexicographic: its base-`side` digits, first coordinate
    most significant, are the coordinates shifted by the radius.
    """
    strides = spec.side ** np.arange(spec.dimension - 1, -1, -1, dtype=np.int64)
    return (ordinals[:, None] // strides[None, :]) % spec.side - spec.radius


def site_array(spec: BoxSpec, site_cap: int = DEFAULT_SITE_CAP) -> np.ndarray:
    """All sites as an (N, d) int array in lexicographic ordinal order."""
    check_capacity(spec, site_cap)
    return site_coords(spec, np.arange(spec.site_count, dtype=np.int64))


def site_norm(site: np.ndarray, norm_kind: str) -> np.ndarray:
    """|n| for one site (1-d array) or many sites (2-d array, one per row)."""
    site = np.asarray(site, dtype=np.float64)
    axis = site.ndim - 1
    if norm_kind == "euclidean":
        return np.sqrt(np.sum(site * site, axis=axis))
    if norm_kind == "sup":
        return np.max(np.abs(site), axis=axis)
    raise ValueError(f"unknown norm_kind {norm_kind!r}")


def weights_array(spec: BoxSpec, alpha: float, site_cap: int = DEFAULT_SITE_CAP) -> np.ndarray:
    """(1 + |n|)**alpha for every site, in ordinal order."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    check_capacity(spec, site_cap)
    if spec.dimension == 1:
        n = np.arange(-spec.radius, spec.radius + 1, dtype=np.float64)
        return (1.0 + np.abs(n)) ** alpha
    return (1.0 + site_norm(site_array(spec, site_cap), spec.norm_kind)) ** alpha


def iter_weight_chunks(
    spec: BoxSpec,
    alpha: float,
    chunk: int = 1 << 18,
    site_cap: int = DEFAULT_SITE_CAP,
) -> Iterator[np.ndarray]:
    """Stream (1 + |n|)**alpha in ordinal order, `chunk` sites at a time.

    The chunk boundaries depend only on `chunk`, so any consumer that reduces
    chunk results in order is bitwise reproducible independent of scheduling.
    """
    check_capacity(spec, site_cap)
    n_sites = spec.site_count
    for start in range(0, n_sites, chunk):
        coords = site_coords(spec, np.arange(start, min(start + chunk, n_sites), dtype=np.int64))
        yield (1.0 + site_norm(coords, spec.norm_kind)) ** alpha
