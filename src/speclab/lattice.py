"""Finite cubic lattice boxes, site coordinates, and decay weights.

The box of radius L in dimension d is the set of integer vectors whose
coordinates all lie in [-L, L]; it has (2L+1)**d sites. Sites are indexed
lexicographically by coordinates so that every ordinal-based computation is
reproducible regardless of iteration strategy. Each site n carries a weight
(1 + |n|)**alpha, where |n| is either the euclidean or the sup norm.

`walk_box` is the one walk over a box: it yields the coordinates and weights
of `WALK_CHUNK` consecutive ordinals at a time. Every box-wide reduction (the
tail sums and calibration in `scaling`, the exact max-CDF ladder in `stats`)
and the d >= 2 weights array read it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

NORM_KINDS = ("euclidean", "sup")

# Hard stop against accidentally enumerating astronomically large boxes.
DEFAULT_SITE_CAP = 100_000_000

# Sites per chunk of `walk_box`. Read at call time, so a test can shrink it to
# put chunk boundaries inside a small box.
WALK_CHUNK = 1 << 18


class CapacityError(Exception):
    """Raised when a box exceeds DEFAULT_SITE_CAP sites."""


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


def check_capacity(spec: BoxSpec) -> None:
    if spec.site_count > DEFAULT_SITE_CAP:
        raise CapacityError(
            f"box with {spec.site_count} sites exceeds cap {DEFAULT_SITE_CAP}"
        )


def site_coords(spec: BoxSpec, ordinals: np.ndarray) -> np.ndarray:
    """(len(ordinals), d) int coordinates of sites given by ordinal.

    The ordinal is lexicographic: its base-`side` digits, first coordinate
    most significant, are the coordinates shifted by the radius.
    """
    strides = spec.side ** np.arange(spec.dimension - 1, -1, -1, dtype=np.int64)
    return (ordinals[:, None] // strides[None, :]) % spec.side - spec.radius


def site_array(spec: BoxSpec) -> np.ndarray:
    """All sites as an (N, d) int array in lexicographic ordinal order."""
    check_capacity(spec)
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


def walk_box(spec: BoxSpec, alpha: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The box in ordinal order, `WALK_CHUNK` sites at a time.

    Yields (coords, weights): the chunk's (n, d) int coordinates and its
    (1 + |n|)**alpha. The chunk boundaries depend only on `WALK_CHUNK`, so any
    consumer that reduces chunk results in order is bitwise reproducible
    independent of scheduling.
    """
    check_capacity(spec)
    n_sites, chunk = spec.site_count, WALK_CHUNK
    for start in range(0, n_sites, chunk):
        coords = site_coords(spec, np.arange(start, min(start + chunk, n_sites), dtype=np.int64))
        yield coords, (1.0 + site_norm(coords, spec.norm_kind)) ** alpha


def weights_array(spec: BoxSpec, alpha: float) -> np.ndarray:
    """(1 + |n|)**alpha for every site, in ordinal order."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if spec.dimension == 1:
        check_capacity(spec)
        n = np.arange(-spec.radius, spec.radius + 1, dtype=np.float64)
        return (1.0 + np.abs(n)) ** alpha
    return np.concatenate([w for _, w in walk_box(spec, alpha)])
